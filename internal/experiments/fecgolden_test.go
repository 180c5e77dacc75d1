package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"ppr/internal/schemes"
	"ppr/internal/sim"
)

// fecSchemesDigest hashes every FEC-family scheme's per-link delivered
// bytes, under both receiver variants, on one trace. Links are sorted so
// the digest does not depend on map order.
func fecSchemesDigest(t *testing.T, tr *Trace) string {
	t.Helper()
	h := sha256.New()
	p := DefaultSchemeParams()
	pp := tr.Post(0)
	for _, name := range []string{"FEC", "FEC+interleaving", "PPR+FEC"} {
		s, err := schemes.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for variant := range sim.VariantNames {
			acc := pp.PerLinkDelivery(variant, s, p)
			keys := make([]LinkKey, 0, len(acc))
			for k := range acc {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool {
				if keys[i].Src != keys[j].Src {
					return keys[i].Src < keys[j].Src
				}
				return keys[i].Rcv < keys[j].Rcv
			})
			fmt.Fprintf(h, "%s/%d:", name, variant)
			for _, k := range keys {
				fmt.Fprintf(h, " %d-%d=%d", k.Src, k.Rcv, acc[k].DeliveredBytes)
			}
			fmt.Fprintln(h)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFECSchemesQuickGolden freezes the FEC-family curves on the quick
// high-load trace: FEC, FEC+interleaving and PPR+FEC per-link delivered
// bytes, with and without postamble decoding, at three seeds. The digests
// were recorded while blockRepaired still ran the full soft-output decode
// and tested its bits for zero; the metric-only fec.Repairs must reproduce
// them.
func TestFECSchemesQuickGolden(t *testing.T) {
	golden := map[uint64]string{
		1:  "28213a6af109f913090980dd7b895ca2da826cfc54d47860af3adfbb703724c8",
		7:  "1e8998e3319e755c4eb7545921a97b2aff21e1c981b9b39c625544e041655cfa",
		42: "f2d57a8086347ddf888f8767d0c55041cdc3cc293c7576a65f79584df01ba732",
	}
	for seed, want := range golden {
		tr := Options{Seed: seed, Quick: true}.Trace(LoadHigh, false)
		if got := fecSchemesDigest(t, tr); got != want {
			t.Errorf("seed %d: FEC schemes digest %s, golden %s", seed, got, want)
		}
	}
}
