package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"
)

// TestFig17WorkerInvariance pins the parallelization contract: the closed-
// loop figure is bit-identical however many workers the (pair, layer) cells
// fan out over.
func TestFig17WorkerInvariance(t *testing.T) {
	one := Fig17(Options{Seed: 1, Quick: true, Workers: 1})
	many := Fig17(Options{Seed: 1, Quick: true, Workers: 4})
	if !reflect.DeepEqual(one, many) {
		t.Fatal("Fig17 results depend on worker count")
	}
}

// fig17Digest hashes the sampled pairs and each layer's per-pair
// throughput, airtime accounting and transfer counts into a golden constant.
func fig17Digest(r Fig17Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%v\n", r.Pairs)
	for _, c := range r.Curves {
		fmt.Fprintf(h, "%s %v %+v %d %d\n", c.Layer, c.PairKbps, c.Air, c.Transfers, c.Failures)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFig17QuickGolden freezes the quick closed-loop figure, clean and
// under the periodic jammer. The digests were recorded while netsim still
// took the testbed through a dedicated deployment field (receivers by
// index) and shipped the legacy arrival-model jammers; the run on the
// testbed as a Topology with global receiver IDs must reproduce them.
func TestFig17QuickGolden(t *testing.T) {
	golden := map[string]string{
		"":                "b195f88b795efd8da318fdc6a8f66bebaceaf5a86d4d474153009bf57abefcd1",
		"periodic-jammer": "e10da37ab015ebd0b959b1a1ef7d1af3ddce7336618cae44a6f7b2bf179ad85c",
	}
	for sc, want := range golden {
		r := Fig17(Options{Seed: 1, Quick: true, Scenario: sc})
		if got := fig17Digest(r); got != want {
			t.Errorf("scenario %q: Fig17 digest %s, golden %s", sc, got, want)
			for _, c := range r.Curves {
				t.Logf("%s %v %+v %d %d", c.Layer, c.PairKbps, c.Air, c.Transfers, c.Failures)
			}
		}
	}
}

// TestFig17QuickDirection asserts the headline direction at quick scale:
// closed-loop PP-ARQ beats both status-quo ARQs. (The full frag-vs-packet
// ordering is a 1500-byte phenomenon — at the quick 250-byte packet size
// fragmentation's checksum overhead can cost more than fragment salvage
// recovers — so it is asserted in TestFig17FullOrdering.)
func TestFig17QuickDirection(t *testing.T) {
	r := Fig17(Options{Seed: 1, Quick: true})
	if len(r.Pairs) == 0 {
		t.Fatal("no sender pairs sampled")
	}
	var pp, frag, pack float64
	for _, c := range r.Curves {
		if len(c.PairKbps) != len(r.Pairs) {
			t.Fatalf("%s: %d samples for %d pairs", c.Layer, len(c.PairKbps), len(r.Pairs))
		}
		switch c.Layer {
		case "pp-arq":
			pp = c.MedianKbps
		case "frag-crc-arq":
			frag = c.MedianKbps
		case "packet-crc-arq":
			pack = c.MedianKbps
		}
	}
	if pp <= 0 || frag <= 0 || pack <= 0 {
		t.Fatalf("degenerate medians pp=%v frag=%v pack=%v", pp, frag, pack)
	}
	if pp < frag || pp < pack {
		t.Errorf("PP-ARQ median %v should lead frag %v and packet %v", pp, frag, pack)
	}
}

// TestFig17ScenarioWired pins that -scenario actually reaches the closed
// loop: a jammer scenario overlays its jammer on every pair run (changing
// the results), and the jammer's sender never appears in a sampled pair.
func TestFig17ScenarioWired(t *testing.T) {
	base := Fig17(Options{Seed: 1, Quick: true})
	jam := Fig17(Options{Seed: 1, Quick: true, Scenario: "periodic-jammer"})
	if jam.Scenario != "periodic-jammer" || base.Scenario != "poisson" {
		t.Fatalf("scenario labels %q / %q", base.Scenario, jam.Scenario)
	}
	for _, p := range jam.Pairs {
		if p[0] == 0 || p[1] == 0 {
			t.Fatalf("jammer sender 0 sampled as a flow in pair %v", p)
		}
	}
	if reflect.DeepEqual(base.Curves, jam.Curves) {
		t.Error("jammer scenario produced results identical to the clean run")
	}
}

// TestFig17FullOrdering is the acceptance gate for the closed-loop figure:
// at the paper's 1500-byte packet size, aggregate throughput orders
// PP-ARQ > fragmented CRC > packet CRC (Sec. 7.5 / Table 1 direction).
func TestFig17FullOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale closed-loop run")
	}
	r := Fig17(Options{Seed: 1})
	if ratio := r.MedianRatio("pp-arq", "frag-crc-arq"); ratio <= 1 {
		t.Errorf("PP-ARQ / frag-CRC median ratio %.2f, want > 1", ratio)
	}
	if ratio := r.MedianRatio("frag-crc-arq", "packet-crc-arq"); ratio <= 1 {
		t.Errorf("frag-CRC / packet-CRC median ratio %.2f, want > 1", ratio)
	}
	if ratio := r.MedianRatio("pp-arq", "packet-crc-arq"); ratio < 1.2 {
		t.Errorf("PP-ARQ / packet-CRC median ratio %.2f, want the paper's direction decisively (>= 1.2)", ratio)
	}
}
