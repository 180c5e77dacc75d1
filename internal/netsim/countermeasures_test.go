package netsim

import (
	"reflect"
	"testing"

	"ppr/internal/obs"
	"ppr/internal/radio"
	"ppr/internal/topo"
)

// auxLayerNames are the countermeasure slugs registered by countermeasures.go.
var auxLayerNames = []string{"pp-arq-hop", "pp-arq-fallback", "pp-arq-chunk"}

func TestAuxLayersResolveOutsideTrio(t *testing.T) {
	for _, name := range auxLayerNames {
		if _, err := linkLayerMaker(name); err != nil {
			t.Errorf("aux layer %q does not resolve: %v", name, err)
		}
	}
	// The paper trio must stay exactly the paper trio: aux layers are
	// opt-in by name, never part of the Fig. 17 comparison set.
	if got := LinkLayers(); len(got) != 3 {
		t.Errorf("LinkLayers() = %v, want the paper trio only", got)
	}
	all := map[string]bool{}
	for _, n := range LinkLayerNames() {
		all[n] = true
	}
	for _, name := range auxLayerNames {
		if !all[name] {
			t.Errorf("aux layer %q missing from LinkLayerNames()", name)
		}
	}
}

// strongJamTopo pins a worst-case geometry, twice (two far-apart clusters →
// two interference domains): in each cluster the jammer overpowers the
// victim receiver by 6 dB but is inaudible to the victim sender, so carrier
// sense never defers and every full-size data frame sails into a jam burst.
func strongJamTopo(t *testing.T) *topo.Topology {
	t.Helper()
	b := topo.NewBuilder(radio.DefaultParams(), 5)
	for i, x0 := range []float64{0, 8000} {
		names := [3]string{"j", "s", "r"}
		for k, n := range names {
			b.Node(n+string(rune('a'+i)), x0+float64(k)*20, 0)
		}
	}
	for _, c := range []string{"a", "b"} {
		b.LinkDBm("s"+c, "r"+c, -60)
		b.LinkDBm("j"+c, "r"+c, -54)
		b.LinkDBm("j"+c, "s"+c, -95)
	}
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// pounder returns a jammer on the given node that fires a full-size burst on
// channel 0 every 30k chips, ignoring carrier sense. A 250-byte frame flies
// ~18k chips, so the idle gap between bursts is too short for a full-size
// data frame but long enough for fallback-size pieces and short control
// frames — exactly the regime the countermeasures are built for.
func pounder(node int) JammerNode {
	return JammerNode{Sender: node,
		Strategy:   fixedChannelJam{period: 30_000, ch: 0},
		BurstBytes: 250,
	}
}

func strongJamConfig(t *testing.T, layer string) Config {
	return Config{
		Topo:         strongJamTopo(t),
		Flows:        []Flow{{Sender: 1, Receiver: 2}},
		PacketBytes:  250,
		DurationSec:  1.0,
		CarrierSense: true,
		Seed:         5,
		NumChannels:  3,
		LinkLayer:    layer,
		Jammers:      []JammerNode{pounder(0)},
	}
}

func TestCountermeasureLayersDeliverUnderJamming(t *testing.T) {
	for _, layer := range auxLayerNames {
		res, err := Run(strongJamConfig(t, layer))
		if err != nil {
			t.Fatalf("%s: %v", layer, err)
		}
		if res.JamFrames == 0 {
			t.Fatalf("%s: jammer never fired", layer)
		}
		fr := res.Flows[0]
		if fr.Transfers == 0 || fr.DeliveredAppBytes == 0 {
			t.Errorf("%s: delivered nothing under jamming (%d transfers, %d bytes)",
				layer, fr.Transfers, fr.DeliveredAppBytes)
		}
	}
}

// TestCountermeasuresActivate drives each countermeasure layer into distress
// under the channel-0 pounder and asserts its activation counter fires on a
// live metrics registry.
func TestCountermeasuresActivate(t *testing.T) {
	cases := []struct {
		layer, counter string
	}{
		{"pp-arq-hop", "netsim.channel_hops"},
		{"pp-arq-fallback", "netsim.rate_fallbacks"},
		{"pp-arq-chunk", "netsim.chunk_cap_switches"},
	}
	for _, tc := range cases {
		old := obs.Default()
		r := obs.New()
		obs.SetDefault(r)
		res, err := Run(strongJamConfig(t, tc.layer))
		obs.SetDefault(old)
		if err != nil {
			t.Fatalf("%s: %v", tc.layer, err)
		}
		if res.JamFrames == 0 {
			t.Fatalf("%s: jammer never fired", tc.layer)
		}
		if got := r.Counter(tc.counter).Value(); got == 0 {
			t.Errorf("%s: %s never incremented under sustained jamming", tc.layer, tc.counter)
		}
	}
}

// TestCountermeasureWorkerInvariance: countermeasure layers mutate link
// state mid-run (retuned channels, fallback levels, capped senders), which
// must stay a pure function of the config across worker counts.
func TestCountermeasureWorkerInvariance(t *testing.T) {
	for _, layer := range auxLayerNames {
		base := strongJamConfig(t, layer)
		base.Flows = append(base.Flows, Flow{Sender: 4, Receiver: 5})
		base.Jammers = append(base.Jammers, pounder(3))
		run := func(workers int, single bool) Result {
			cfg := base
			cfg.Workers = workers
			cfg.singleQueue = single
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", layer, err)
			}
			return res
		}
		ref := run(1, true)
		if ref.Domains < 2 {
			t.Fatalf("%s: expected >= 2 interference domains, got %d", layer, ref.Domains)
		}
		for _, workers := range []int{1, 4} {
			if got := run(workers, false); !reflect.DeepEqual(ref, got) {
				t.Errorf("%s: %d-worker result diverges from single queue:\nsingle  %+v\nsharded %+v",
					layer, workers, ref, got)
			}
		}
	}
}
