package jam

import (
	"ppr/internal/frame"
	"ppr/internal/stats"
)

// ---- Periodic ----

// Periodic jams on a jittered clock with no regard for channel state — the
// classic constant jammer at a duty cycle. The first attempt lands at a
// uniform phase of the period, and each attempt adds uniform jitter.
type Periodic struct {
	// PeriodChips is the interval between attempts; 0 means 50k chips
	// (~25 ms at 2 Mchip/s).
	PeriodChips int64
	// JitterChips uniformly jitters each attempt.
	JitterChips int64
	// Bytes overrides the jam payload size when > 0.
	Bytes int
	// Channel is the channel to jam.
	Channel uint8
}

// Name implements Strategy.
func (Periodic) Name() string { return "periodic" }

// Emitter implements Strategy. The RNG draw order — one Float64 for the
// phase at construction, one Float64 per attempt iff jitter > 0 — is what
// the frozen golden jammer schedules in internal/sim and internal/netsim
// pin; changing it breaks them.
func (s Periodic) Emitter(p Params, rng *stats.RNG) Emitter {
	period := s.PeriodChips
	if period <= 0 {
		period = 50_000
	}
	return &clockEmitter{
		rng: rng, period: period, jitter: s.JitterChips,
		next:  int64(rng.Float64() * float64(period)),
		fire:  func(Observation) (bool, uint8) { return true, s.Channel },
		bytes: s.Bytes,
	}
}

// clockEmitter is the shared jittered-clock timeline: Periodic and
// Reactive differ only in the fire predicate.
type clockEmitter struct {
	rng            *stats.RNG
	period, jitter int64
	next           int64
	fire           func(Observation) (bool, uint8)
	bytes          int
}

func (e *clockEmitter) NextPoll() int64 {
	t := e.next
	if e.jitter > 0 {
		t += int64(e.rng.Float64() * float64(e.jitter))
	}
	e.next += e.period
	return t
}

func (e *clockEmitter) Poll(o Observation) Burst {
	ok, ch := e.fire(o)
	return Burst{Fire: ok, Bytes: e.bytes, Channel: ch}
}

// ---- Reactive ----

// Reactive senses on a dense clock and jams only when it finds energy
// above the carrier-sense threshold — sense-then-jam. It shares Periodic's
// jittered clock and draw order.
type Reactive struct {
	// PeriodChips is the sensing clock; 0 means 12k chips, under half a
	// 1500-byte frame's air time so ongoing packets are caught mid-flight.
	PeriodChips int64
	// JitterChips uniformly jitters each sensing instant.
	JitterChips int64
	// Bytes overrides the jam payload size when > 0.
	Bytes int
}

// Name implements Strategy.
func (Reactive) Name() string { return "reactive" }

// Emitter implements Strategy.
func (s Reactive) Emitter(p Params, rng *stats.RNG) Emitter {
	period := s.PeriodChips
	if period <= 0 {
		period = 12_000
	}
	threshold := p.ThresholdMW
	return &clockEmitter{
		rng: rng, period: period, jitter: s.JitterChips,
		next: int64(rng.Float64() * float64(period)),
		fire: func(o Observation) (bool, uint8) {
			ch, pw := o.BusiestChannel()
			return pw >= threshold, ch
		},
		bytes: s.Bytes,
	}
}

// ---- Preamble ----

// Preamble is the reactive-on-preamble adversary: it polls densely and
// fires the moment it sees a transmission that started recently — within
// the sync pattern plus one poll period — so the jam burst lands on the
// victim's header or early payload, the cheapest place to kill a frame.
type Preamble struct {
	// PollChips is the sensing clock; 0 means 600 chips.
	PollChips int64
	// Bytes overrides the jam payload size when > 0.
	Bytes int
}

// Name implements Strategy.
func (Preamble) Name() string { return "preamble" }

// Emitter implements Strategy. The emitter is RNG-free: its behaviour is a
// pure function of the observation stream.
func (s Preamble) Emitter(p Params, rng *stats.RNG) Emitter {
	period := s.PollChips
	if period <= 0 {
		period = 600
	}
	return &preambleEmitter{
		period: period,
		lead:   int64(frame.SyncChips) + period,
		bytes:  s.Bytes,
	}
}

type preambleEmitter struct {
	next, period, lead int64
	lastStart          int64 // newest tx start already fired on; init 0 is safe: starts are > 0 or caught by lead
	bytes              int
}

func (e *preambleEmitter) NextPoll() int64 {
	t := e.next
	e.next += e.period
	return t
}

func (e *preambleEmitter) Poll(o Observation) Burst {
	// Fire on the newest transmission that began within the lead window
	// and that we have not already fired on.
	best := int64(-1)
	var ch uint8
	for _, tx := range o.Txs {
		if tx.Start > e.lastStart && o.Chip-tx.Start <= e.lead && tx.Start > best {
			best, ch = tx.Start, tx.Channel
		}
	}
	if best < 0 {
		return Burst{}
	}
	e.lastStart = best
	return Burst{Fire: true, Bytes: e.bytes, Channel: ch}
}

// ---- Sweep ----

// Sweep jams blindly on a creeping clock, cycling through the channels:
// each burst lands one channel further on and slightly later in the
// period, so over a long run the jammer rakes the whole time × frequency
// plane. It is RNG-free and oblivious — the baseline the adaptive
// strategies are measured against.
type Sweep struct {
	// PeriodChips is the base interval between bursts; 0 means 30k chips.
	PeriodChips int64
	// StrideChips is the per-burst phase creep; 0 means PeriodChips/16.
	StrideChips int64
	// Bytes overrides the jam payload size when > 0.
	Bytes int
}

// Name implements Strategy.
func (Sweep) Name() string { return "sweep" }

// Emitter implements Strategy.
func (s Sweep) Emitter(p Params, rng *stats.RNG) Emitter {
	period := s.PeriodChips
	if period <= 0 {
		period = 30_000
	}
	stride := s.StrideChips
	if stride <= 0 {
		stride = period / 16
	}
	nch := p.NumChannels
	if nch <= 0 {
		nch = 1
	}
	return &sweepEmitter{period: period, stride: stride, nch: nch, bytes: s.Bytes}
}

type sweepEmitter struct {
	next, period, stride int64
	ch                   int
	nch                  int
	bytes                int
}

func (e *sweepEmitter) NextPoll() int64 {
	t := e.next
	e.next += e.period + e.stride
	return t
}

func (e *sweepEmitter) Poll(Observation) Burst {
	b := Burst{Fire: true, Bytes: e.bytes, Channel: uint8(e.ch)}
	e.ch++
	if e.ch == e.nch {
		e.ch = 0
	}
	return b
}

// ---- Learner ----

// Learner is the timing-learning adversary (AntiJam's adaptive model): it
// polls densely, builds a histogram of the gaps between successive
// transmission starts it hears, and once the histogram has enough mass it
// fires predictively at lastStart + mode(gap) — hitting periodic or
// near-periodic senders without waiting to sense their energy.
type Learner struct {
	// PollChips is the sensing clock; 0 means 1500 chips.
	PollChips int64
	// BinChips is the histogram bin width; 0 means 2048 chips.
	BinChips int64
	// MinSamples is the histogram mass required before predicting; 0
	// means 8.
	MinSamples int
	// Bytes overrides the jam payload size when > 0.
	Bytes int
}

// Name implements Strategy.
func (Learner) Name() string { return "learner" }

// learnerBins bounds the gap histogram: gaps beyond binChips*learnerBins
// are clamped into the last bin.
const learnerBins = 256

// Emitter implements Strategy. The emitter is RNG-free.
func (s Learner) Emitter(p Params, rng *stats.RNG) Emitter {
	period := s.PollChips
	if period <= 0 {
		period = 1500
	}
	bin := s.BinChips
	if bin <= 0 {
		bin = 2048
	}
	min := s.MinSamples
	if min <= 0 {
		min = 8
	}
	return &learnerEmitter{
		period: period, bin: bin, minSamples: min,
		seen: -1, predictAt: -1, bytes: s.Bytes,
	}
}

type learnerEmitter struct {
	next, period int64
	bin          int64
	minSamples   int
	bytes        int

	hist    [learnerBins]int32
	samples int
	seen    int64 // newest tx start absorbed into the histogram; -1 before the first

	lastPoll    int64
	predictAt   int64 // pending one-shot predictive strike; -1 when none
	predictCh   uint8
	firePredict bool
}

func (e *learnerEmitter) NextPoll() int64 {
	// A predictive strike consumed by the engine but never Polled (the
	// radio was busy at the instant) is simply lost; the flag must not
	// leak onto the next dense poll.
	e.firePredict = false
	if e.predictAt >= 0 && e.predictAt < e.next {
		t := e.predictAt
		e.predictAt = -1
		e.firePredict = true
		e.lastPoll = t
		return t
	}
	t := e.next
	e.next += e.period
	e.lastPoll = t
	return t
}

func (e *learnerEmitter) Poll(o Observation) Burst {
	e.observe(o)
	if e.firePredict {
		e.firePredict = false
		return Burst{Fire: true, Bytes: e.bytes, Channel: e.predictCh}
	}
	return Burst{}
}

// observe absorbs the observation's new transmission starts into the gap
// histogram, oldest first, and arms a predictive strike when the
// histogram has enough mass. It allocates nothing: the hot-path gate
// depends on that.
func (e *learnerEmitter) observe(o Observation) {
	for {
		// Smallest unabsorbed start; Txs is tiny, so the repeated linear
		// scan beats sorting a copy (which would allocate).
		best := int64(-1)
		var ch uint8
		for _, tx := range o.Txs {
			if tx.Start > e.seen && (best < 0 || tx.Start < best) {
				best, ch = tx.Start, tx.Channel
			}
		}
		if best < 0 {
			return
		}
		if e.seen >= 0 {
			gap := (best - e.seen) / e.bin
			if gap >= learnerBins {
				gap = learnerBins - 1
			}
			e.hist[gap]++
			e.samples++
		}
		e.seen = best
		if e.samples >= e.minSamples {
			mode := 0
			for i, c := range e.hist {
				if c > e.hist[mode] {
					mode = i
				}
			}
			gap := int64(mode)*e.bin + e.bin/2
			if at := e.seen + gap; at > e.lastPoll {
				e.predictAt = at
				e.predictCh = ch
			}
		}
	}
}
