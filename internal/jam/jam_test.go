package jam

import (
	"reflect"
	"testing"

	"ppr/internal/frame"
	"ppr/internal/stats"
)

func testParams() Params {
	return Params{
		DurationChips: 8_000_000,
		BurstBytes:    40,
		ThresholdMW:   1e-8, // -80 dBm
		NoiseMW:       1e-9,
		NumChannels:   3,
	}
}

func TestRegistryNames(t *testing.T) {
	want := []string{"duty", "learner", "markov", "periodic", "preamble", "reactive", "sweep", "targeted"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, n := range want {
		s, err := ByName(n)
		if err != nil {
			t.Fatalf("ByName(%q): %v", n, err)
		}
		if s.Name() == "" {
			t.Fatalf("ByName(%q).Name() empty", n)
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Fatal("ByName(bogus) succeeded")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register("periodic", func() Strategy { return Periodic{} })
}

// TestPeriodicMatchesLegacyDrawOrder pins the clock emitter's RNG draw
// order to the legacy arrival-model jammer's contract: one Float64 for the
// phase at construction, one Float64 per attempt iff jitter > 0. The
// frozen golden jammer schedules in internal/sim and internal/netsim build
// on this.
func TestPeriodicMatchesLegacyDrawOrder(t *testing.T) {
	const seed, period, jitter = 77, 50_000, 8_000
	em := Periodic{PeriodChips: period, JitterChips: jitter}.
		Emitter(testParams(), stats.NewRNG(seed))

	// Hand-rolled legacy replica.
	rng := stats.NewRNG(seed)
	next := int64(rng.Float64() * float64(period))
	for i := 0; i < 200; i++ {
		want := next
		want += int64(rng.Float64() * float64(jitter))
		next += period
		if got := em.NextPoll(); got != want {
			t.Fatalf("poll %d: NextPoll = %d, want %d", i, got, want)
		}
		if b := em.Poll(Observation{Chip: want, Busy: []float64{1e-9}}); !b.Fire {
			t.Fatalf("poll %d: periodic did not fire", i)
		}
	}
}

func TestReactiveFiresOnlyOnBusyChannel(t *testing.T) {
	p := testParams()
	em := Reactive{PeriodChips: 12_000, JitterChips: 2_000}.Emitter(p, stats.NewRNG(3))
	tIdle := em.NextPoll()
	if b := em.Poll(Observation{Chip: tIdle, Busy: []float64{p.NoiseMW, p.NoiseMW, p.NoiseMW}}); b.Fire {
		t.Fatal("reactive fired on an idle channel")
	}
	tBusy := em.NextPoll()
	b := em.Poll(Observation{Chip: tBusy, Busy: []float64{p.NoiseMW, 10 * p.ThresholdMW, p.NoiseMW}})
	if !b.Fire {
		t.Fatal("reactive did not fire on a busy channel")
	}
	if b.Channel != 1 {
		t.Fatalf("reactive fired on channel %d, want busiest channel 1", b.Channel)
	}
}

func TestPreambleFiresOncePerTransmission(t *testing.T) {
	p := testParams()
	em := Preamble{PollChips: 600}.Emitter(p, stats.NewRNG(9))
	tx := ActiveTx{Src: 2, Start: 1200, End: 1200 + int64(frame.MaxAirChips), Channel: 2}
	fires := 0
	for i := 0; i < 40; i++ {
		at := em.NextPoll()
		obs := Observation{Chip: at, Busy: []float64{1e-8}}
		if at >= tx.Start && at < tx.End {
			obs.Txs = []ActiveTx{tx}
		}
		if b := em.Poll(obs); b.Fire {
			fires++
			if b.Channel != tx.Channel {
				t.Fatalf("preamble fired on channel %d, want the victim's channel %d", b.Channel, tx.Channel)
			}
			if at-tx.Start > int64(frame.SyncChips)+600 {
				t.Fatalf("preamble fired %d chips after the start, past the lead window", at-tx.Start)
			}
		}
	}
	if fires != 1 {
		t.Fatalf("preamble fired %d times on one transmission, want exactly 1", fires)
	}
}

func TestSweepCyclesChannels(t *testing.T) {
	p := testParams()
	em := Sweep{PeriodChips: 10_000}.Emitter(p, stats.NewRNG(4))
	var chans []uint8
	last := int64(-1)
	for i := 0; i < 6; i++ {
		at := em.NextPoll()
		if at <= last {
			t.Fatalf("sweep poll %d not strictly increasing: %d after %d", i, at, last)
		}
		last = at
		b := em.Poll(Observation{Chip: at, Busy: []float64{0, 0, 0}})
		if !b.Fire {
			t.Fatalf("sweep poll %d did not fire", i)
		}
		chans = append(chans, b.Channel)
	}
	if want := []uint8{0, 1, 2, 0, 1, 2}; !reflect.DeepEqual(chans, want) {
		t.Fatalf("sweep channels = %v, want %v", chans, want)
	}
}

// TestLearnerPredictsPeriodicSender drives the learner with a strictly
// periodic victim and requires a predictive strike: a fire at an instant
// that is not on the dense sensing clock, close to the victim's next
// start.
func TestLearnerPredictsPeriodicSender(t *testing.T) {
	p := testParams()
	const gap = 40_000
	em := Learner{PollChips: 1500, BinChips: 2048, MinSamples: 4}.Emitter(p, stats.NewRNG(5))
	victimAir := int64(10_000)
	predictive := 0
	for i := 0; i < 400; i++ {
		at := em.NextPoll()
		if at >= p.DurationChips {
			break
		}
		obs := Observation{Chip: at, Busy: []float64{1e-9}}
		// The victim transmits at gap, 2*gap, 3*gap, ...
		k := at / gap
		if start := k * gap; start > 0 && at-start < victimAir {
			obs.Txs = []ActiveTx{{Src: 1, Start: start, End: start + victimAir}}
		}
		if b := em.Poll(obs); b.Fire {
			if at%1500 == 0 {
				t.Fatalf("learner fired on the dense clock at %d; want predictive strikes only", at)
			}
			next := (at/gap + 1) * gap
			prev := (at / gap) * gap
			d := at - prev
			if next-at < d {
				d = next - at
			}
			if d > 3*2048 {
				t.Fatalf("predictive strike at %d is %d chips from the victim clock", at, d)
			}
			predictive++
		}
	}
	if predictive == 0 {
		t.Fatal("learner never fired predictively on a periodic victim")
	}
}

func TestDutyCycleGatesFire(t *testing.T) {
	p := testParams()
	s := DutyCycle(Periodic{PeriodChips: 10_000}, 100_000, 100_000)
	if s.Name() != "duty(periodic)" {
		t.Fatalf("Name() = %q", s.Name())
	}
	em := s.Emitter(p, stats.NewRNG(6))
	on, off := 0, 0
	for i := 0; i < 100; i++ {
		at := em.NextPoll()
		b := em.Poll(Observation{Chip: at, Busy: []float64{0}})
		if at%200_000 < 100_000 {
			if !b.Fire {
				t.Fatalf("duty cycle suppressed a fire in the ON phase at %d", at)
			}
			on++
		} else {
			if b.Fire {
				t.Fatalf("duty cycle fired in the OFF phase at %d", at)
			}
			off++
		}
	}
	if on == 0 || off == 0 {
		t.Fatalf("degenerate phase coverage: on=%d off=%d", on, off)
	}
}

func TestMarkovClampsProbabilities(t *testing.T) {
	m := Markov(Periodic{}, -3, 7, 0.5).(markov)
	a, b, c := m.Probs()
	if a != 0 || b != 1 || c != 0.5 {
		t.Fatalf("Probs() = %v %v %v, want 0 1 0.5", a, b, c)
	}
}

func TestMarkovChainGates(t *testing.T) {
	p := testParams()
	// pStart=1, pStay=0: fires exactly every other poll (on, recover via
	// pRecover=1, on, ...): quiet→burst, burst→recover, recover→quiet.
	em := Markov(Periodic{PeriodChips: 10_000}, 1, 0, 1).Emitter(p, stats.NewRNG(7))
	var fires []bool
	for i := 0; i < 9; i++ {
		at := em.NextPoll()
		fires = append(fires, em.Poll(Observation{Chip: at, Busy: []float64{0}}).Fire)
	}
	want := []bool{true, false, false, true, false, false, true, false, false}
	if !reflect.DeepEqual(fires, want) {
		t.Fatalf("markov fire pattern = %v, want %v", fires, want)
	}
}

func TestMarkovDoesNotPerturbInnerDraws(t *testing.T) {
	p := testParams()
	bare := Periodic{PeriodChips: 50_000, JitterChips: 8_000}.Emitter(p, stats.NewRNG(11))
	wrapped := Markov(Periodic{PeriodChips: 50_000, JitterChips: 8_000}, 0.5, 0.5, 0.5).
		Emitter(p, stats.NewRNG(11))
	for i := 0; i < 100; i++ {
		a, b := bare.NextPoll(), wrapped.NextPoll()
		if a != b {
			t.Fatalf("poll %d: wrapping with Markov changed the inner timeline: %d vs %d", i, a, b)
		}
		bare.Poll(Observation{Chip: a, Busy: []float64{0}})
		wrapped.Poll(Observation{Chip: b, Busy: []float64{0}})
	}
}

func TestInZoneSilencesOutsideJammer(t *testing.T) {
	p := testParams()
	p.HasPos, p.X, p.Y = true, 500, 500
	s := InZone(Periodic{PeriodChips: 10_000}, Circle{X: 0, Y: 0, R: 100})
	em := s.Emitter(p, stats.NewRNG(8))
	if at := em.NextPoll(); at < p.DurationChips {
		t.Fatalf("out-of-zone emitter polls at %d, want >= DurationChips", at)
	}

	p.X, p.Y = 50, -50
	em = s.Emitter(p, stats.NewRNG(8))
	at := em.NextPoll()
	if at >= p.DurationChips {
		t.Fatal("in-zone emitter never polls")
	}
	if !em.Poll(Observation{Chip: at, Busy: []float64{0}}).Fire {
		t.Fatal("in-zone emitter did not fire")
	}

	// Engines without positions treat every jammer as in-zone.
	p.HasPos = false
	p.X, p.Y = 1e9, 1e9
	em = s.Emitter(p, stats.NewRNG(8))
	if at := em.NextPoll(); at >= p.DurationChips {
		t.Fatal("position-less engine silenced a zoned jammer")
	}

	if !(Rect{X0: 0, Y0: 0, X1: 10, Y1: 10}).Contains(5, 5) {
		t.Fatal("Rect.Contains(5,5) false")
	}
	if (Rect{X0: 0, Y0: 0, X1: 10, Y1: 10}).Contains(11, 5) {
		t.Fatal("Rect.Contains(11,5) true")
	}
}

func TestTargetFiltersVictims(t *testing.T) {
	p := testParams()
	em := Target(Periodic{PeriodChips: 10_000}, 3).Emitter(p, stats.NewRNG(10))
	at := em.NextPoll()
	if em.Poll(Observation{Chip: at, Busy: []float64{0}}).Fire {
		t.Fatal("targeted jammer fired with nobody on the air")
	}
	at = em.NextPoll()
	if em.Poll(Observation{Chip: at, Busy: []float64{0},
		Txs: []ActiveTx{{Src: 5, Start: at - 10, End: at + 10}}}).Fire {
		t.Fatal("targeted jammer fired on a non-victim")
	}
	at = em.NextPoll()
	if !em.Poll(Observation{Chip: at, Busy: []float64{0},
		Txs: []ActiveTx{{Src: 3, Start: at - 10, End: at + 10}}}).Fire {
		t.Fatal("targeted jammer did not fire on its victim")
	}

	// Empty victim list: any transmission qualifies.
	em = Target(Periodic{PeriodChips: 10_000}).Emitter(p, stats.NewRNG(10))
	at = em.NextPoll()
	if em.Poll(Observation{Chip: at, Busy: []float64{0}}).Fire {
		t.Fatal("any-victim jammer fired on an idle channel")
	}
	at = em.NextPoll()
	if !em.Poll(Observation{Chip: at, Busy: []float64{0},
		Txs: []ActiveTx{{Src: 7, Start: at - 10, End: at + 10}}}).Fire {
		t.Fatal("any-victim jammer did not fire on an active channel")
	}
}

// TestAllRegisteredNonDecreasingAndDeterministic drives every registered
// strategy twice with the same seed and a synthetic observation stream,
// checking the determinism contract: identical poll timelines and fire
// decisions, and non-decreasing NextPoll.
func TestAllRegisteredNonDecreasingAndDeterministic(t *testing.T) {
	p := testParams()
	for _, name := range Names() {
		run := func(seed uint64) ([]int64, []Burst) {
			s, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			em := s.Emitter(p, stats.NewRNG(seed))
			var at []int64
			var bs []Burst
			// Enough polls for the learner's dense clock to accumulate its
			// minimum histogram mass against the 100k-chip victim cycle.
			for i := 0; i < 3000; i++ {
				tp := em.NextPoll()
				if tp >= p.DurationChips {
					break
				}
				obs := Observation{Chip: tp, Busy: []float64{p.NoiseMW, p.NoiseMW, p.NoiseMW}}
				// Synthetic victim active 40% of the time on a 100k cycle.
				if tp%100_000 < 40_000 {
					start := tp - tp%100_000
					obs.Txs = []ActiveTx{{Src: 1, Start: start, End: start + 40_000, Channel: 1}}
					obs.Busy[1] = 10 * p.ThresholdMW
				}
				at = append(at, tp)
				bs = append(bs, em.Poll(obs))
			}
			return at, bs
		}
		at1, bs1 := run(42)
		at2, bs2 := run(42)
		if !reflect.DeepEqual(at1, at2) || !reflect.DeepEqual(bs1, bs2) {
			t.Fatalf("%s: same seed, different timeline", name)
		}
		for i := 1; i < len(at1); i++ {
			if at1[i] < at1[i-1] {
				t.Fatalf("%s: NextPoll decreased: %d after %d", name, at1[i], at1[i-1])
			}
		}
		fired := false
		for _, b := range bs1 {
			if b.Fire {
				fired = true
			}
			if b.Bytes < 0 {
				t.Fatalf("%s: negative burst size %d", name, b.Bytes)
			}
		}
		if !fired {
			t.Fatalf("%s: never fired against an active victim", name)
		}
	}
}
