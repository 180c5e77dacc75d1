package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"ppr/internal/frame"
	"ppr/internal/scenario"
)

// outcomeDigest hashes every field of every outcome, in trace order, with
// hints as their float64 bits: two traces share a digest only if they are
// bit-identical.
func outcomeDigest(outs []Outcome) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	flag := func(v bool) {
		if v {
			put(1)
		} else {
			put(0)
		}
	}
	for i := range outs {
		o := &outs[i]
		put(uint64(o.TxID))
		put(uint64(o.Src))
		put(uint64(o.Receiver))
		put(uint64(o.Variant))
		flag(o.Acquired)
		put(uint64(o.Kind))
		flag(o.CRCOK)
		put(uint64(o.MissingPrefix))
		put(uint64(len(o.Decisions)))
		for _, d := range o.Decisions {
			put(uint64(d.Symbol))
			put(math.Float64bits(float64(d.Hint)))
		}
		put(uint64(len(o.TruthSyms)))
		h.Write(o.TruthSyms)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDeliverGolden pins the delivery trace of both receiver variants —
// without and with postamble decoding — on configurations that exercise
// carrier sense on and off, a strategy jammer, and maximum-size packets
// (whose rollback reaches back exactly to the horizon: the receiver's
// buffer holds one maximum frame). The digests were recorded while each
// variant ran its own receiver over every window; they must not move when
// the engine changes how it derives the variants.
func TestDeliverGolden(t *testing.T) {
	jamSweep, err := scenario.ByName("jam-sweep")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  func() Config
		want string
	}{
		{"cs-on", func() Config {
			c := smallCfg(6900, true, 3)
			c.DurationSec = 2
			return c
		}, "707d167dd89310afcd4c0c4f8109a9483cf3b97b0321767cdee7338033a9c8e0"},
		{"cs-off", func() Config {
			c := smallCfg(13800, false, 5)
			c.DurationSec = 2
			return c
		}, "19720f56d10a66d28a92a7d0564b0108027041bae99d465ea75983207707c7e7"},
		{"jam-sweep", func() Config {
			c := smallCfg(12000, true, 11)
			c.DurationSec = 2
			c.Scenario = jamSweep
			return c
		}, "21b61614891ebfa62c33fdc1ecf5687b69589973509398a82405767ca11c986a"},
		{"1500B", func() Config {
			c := smallCfg(13800, false, 7)
			c.PacketBytes = 1500
			c.DurationSec = 3
			return c
		}, "2c02d1d1c210f7b0d08ce8f79a9dcc990c3883494f204b2dfe8276666cc90a27"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			cfg.Workers = 2
			_, outs := Run(cfg)
			var acq, post, clipped [2]int
			for _, o := range outs {
				if o.Acquired {
					acq[o.Variant]++
					if o.Kind == frame.SyncPostamble {
						post[o.Variant]++
					}
					if o.MissingPrefix > 0 {
						clipped[o.Variant]++
					}
				}
			}
			t.Logf("%d outcomes; acquired %v, via postamble %v, with missing prefix %v", len(outs), acq, post, clipped)
			if got := outcomeDigest(outs); got != tc.want {
				t.Errorf("trace digest %s, want %s", got, tc.want)
			}
		})
	}
}
