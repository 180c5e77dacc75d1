package scenario

import (
	"testing"

	"ppr/internal/jam"
	"ppr/internal/stats"
)

func params() Params {
	return Params{OfferedBps: 6900, PacketBytes: 200}
}

// drain pulls arrivals until the duration ends, with a hard cap against
// runaway streams.
func drain(t *testing.T, a Arrivals, dur int64) []int64 {
	t.Helper()
	var out []int64
	for i := 0; i < 1_000_000; i++ {
		v := a.Next()
		if v >= dur {
			return out
		}
		if len(out) > 0 && v < out[len(out)-1] {
			t.Fatalf("arrivals regressed: %d after %d", v, out[len(out)-1])
		}
		out = append(out, v)
	}
	t.Fatal("arrival stream never reached the duration")
	return nil
}

func TestPoissonMatchesConfiguredLoad(t *testing.T) {
	arr := drain(t, PoissonModel{}.Arrivals(params(), stats.NewRNG(1)), 6_000_000)
	// 6900 bps × 3 s / 1600 bits per packet ≈ 13 packets; wide slack.
	if len(arr) < 4 || len(arr) > 35 {
		t.Errorf("poisson produced %d arrivals, expected ~13", len(arr))
	}
}

func TestBurstyPreservesMeanLoad(t *testing.T) {
	p := params()
	const dur = 60_000_000 // 30 s to average over many on/off cycles
	var poisson, bursty int
	for seed := uint64(0); seed < 8; seed++ {
		poisson += len(drain(t, PoissonModel{}.Arrivals(p, stats.NewRNG(seed)), dur))
		bursty += len(drain(t, DefaultBursty().Arrivals(p, stats.NewRNG(100+seed)), dur))
	}
	ratio := float64(bursty) / float64(poisson)
	if ratio < 0.7 || ratio > 1.3 {
		t.Errorf("bursty/poisson arrival ratio %.2f; duty compensation broken", ratio)
	}
	t.Logf("arrivals over 8x30s: poisson %d, bursty %d (ratio %.2f)", poisson, bursty, ratio)
}

func TestBurstyClustersArrivals(t *testing.T) {
	p := params()
	const dur = 60_000_000
	gapsOf := func(arr []int64) (median float64, max int64) {
		if len(arr) < 3 {
			t.Fatal("too few arrivals")
		}
		var gaps []float64
		for i := 1; i < len(arr); i++ {
			g := arr[i] - arr[i-1]
			gaps = append(gaps, float64(g))
			if g > max {
				max = g
			}
		}
		return stats.Median(gaps), max
	}
	pm, _ := gapsOf(drain(t, PoissonModel{}.Arrivals(p, stats.NewRNG(5)), dur))
	bm, bmax := gapsOf(drain(t, DefaultBursty().Arrivals(p, stats.NewRNG(5)), dur))
	// Bursty: arrivals inside ON periods are ~4x denser (smaller median
	// gap), with long OFF silences (larger max gap).
	if bm >= pm {
		t.Errorf("bursty median gap %.0f not below poisson %.0f", bm, pm)
	}
	if float64(bmax) < 600_000 {
		t.Errorf("bursty max gap %d chips; no OFF silences visible", bmax)
	}
}

// TestJammerPeriodicClock checks the periodic-jammer scenario's clock: one
// jam attempt per ~50k chips.
func TestJammerPeriodicClock(t *testing.T) {
	const dur = 6_000_000
	em := PeriodicJammer().Node(0, 23).Jam.Emitter(jam.Params{DurationChips: dur, BurstBytes: JamBurstBytes}, stats.NewRNG(3))
	n := 0
	for em.NextPoll() < dur {
		n++
	}
	if want := dur / 50_000; n < want-2 || n > want+2 {
		t.Errorf("%d jam attempts over 3 s, want ~%d", n, want)
	}
}

func TestScenarioRegistry(t *testing.T) {
	for _, name := range Names() {
		sc, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if sc.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, sc.Name())
		}
		for i := 0; i < 23; i++ {
			n := sc.Node(i, 23)
			if n.Model == nil && n.Jam == nil {
				t.Fatalf("scenario %q: sender %d has neither model nor jam strategy", name, i)
			}
		}
	}
	if sc, err := ByName(""); err != nil || sc.Name() != "poisson" {
		t.Error("empty name must resolve to poisson")
	}
	if _, err := ByName("no-such-scenario"); err == nil {
		t.Error("unknown scenario did not error")
	}
}

func TestJammerScenarioShape(t *testing.T) {
	sc := PeriodicJammer()
	j := sc.Node(0, 23)
	if j.PacketBytes != JamBurstBytes {
		t.Errorf("jammer node misconfigured: %+v", j)
	}
	if j.Jam == nil || j.Jam.Name() != "periodic" {
		t.Errorf("periodic jammer node lacks the periodic strategy: %+v", j)
	}
	for i := 1; i < 23; i++ {
		n := sc.Node(i, 23)
		if n.PacketBytes != 0 || n.Jam != nil {
			t.Errorf("sender %d inherited jammer flags: %+v", i, n)
		}
	}
	r := ReactiveJammer().Node(0, 23)
	if r.Jam == nil || r.Jam.Name() != "reactive" {
		t.Errorf("reactive jammer node misconfigured: %+v", r)
	}
	if r.PacketBytes != ReactiveBurstBytes {
		t.Errorf("reactive jammer burst size %d, want %d", r.PacketBytes, ReactiveBurstBytes)
	}
}

// TestJamScenariosRegistered checks every registered jam strategy is
// selectable as a "jam-<name>" scenario overlaying sender 0.
func TestJamScenariosRegistered(t *testing.T) {
	for _, name := range jam.Names() {
		sc, err := ByName("jam-" + name)
		if err != nil {
			t.Fatalf("jam-%s not registered: %v", name, err)
		}
		n := sc.Node(0, 23)
		if n.Jam == nil || n.PacketBytes <= 0 {
			t.Errorf("jam-%s sender 0 misconfigured: %+v", name, n)
		}
		if sc.Node(1, 23).Jam != nil {
			t.Errorf("jam-%s leaked the strategy onto sender 1", name)
		}
	}
}

func TestModelNames(t *testing.T) {
	if (PoissonModel{}).Name() != "poisson" {
		t.Error("poisson name")
	}
	if DefaultBursty().Name() != "bursty" {
		t.Error("bursty name")
	}
}
