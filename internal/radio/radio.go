// Package radio simulates the wireless channel of the PPR testbed at chip
// granularity. It replaces the 2.4 GHz indoor RF environment of the paper's
// 27-node office deployment with a standard log-distance propagation model
// plus per-link lognormal shadowing, an additive noise floor, and explicit
// interference accounting between overlapping transmissions.
//
// The receiver abstraction is the one PPR needs: during any instant of a
// reception the receiver slices chips from the strongest signal present, and
// each chip is flipped with probability Q(sqrt(2·SINR)) — the coherent MSK
// chip error rate at the instantaneous signal-to-interference-and-noise
// ratio. Collisions therefore destroy exactly the overlapped chip ranges
// (the weaker packet's chips become uncorrelated noise relative to the
// stronger), producing the bursty symbol errors whose structure SoftPHY
// hints expose (Sec. 7.3) — the phenomenology the whole paper rests on.
//
// Synthesis is word-level, not chip-level: streams are bitutil.ChipWords,
// noise segments draw 64 chips per RNG word, dominant-signal segments copy
// the transmitter's packed chips word-at-a-time, and chip errors are
// applied by geometric skip-sampling — the gap to the next flip is drawn in
// one shot from log(U)/log1p(-p) — so the cost of a segment is proportional
// to the errors it contains, not the chips it spans. A clean segment costs
// roughly one draw in total.
package radio

import (
	"fmt"
	"math"
	"slices"

	"ppr/internal/bitutil"
	"ppr/internal/stats"
)

// Position is a node location on the floor plan, in feet (Fig. 7's layout
// spans roughly 100×50 feet).
type Position struct {
	X, Y float64
}

// Dist returns the Euclidean distance between two positions.
func (p Position) Dist(q Position) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Params describes the propagation environment. Defaults (DefaultParams)
// are tuned so that same-room links are near-perfect and across-floor links
// are marginal, matching the testbed's observation that each sink heard 4–8
// senders with the best links near-perfect (Sec. 7.2.2).
type Params struct {
	// TxPowerDBm is the transmit power (CC2420: 0 dBm).
	TxPowerDBm float64
	// RefLossDB is the path loss at the reference distance of 1 foot.
	RefLossDB float64
	// PathLossExp is the log-distance path loss exponent (indoor office:
	// ~3).
	PathLossExp float64
	// ShadowSigmaDB is the standard deviation of static per-link lognormal
	// shadowing.
	ShadowSigmaDB float64
	// NoiseFloorDBm is the thermal + receiver noise floor.
	NoiseFloorDBm float64
	// CSThresholdDBm is the energy level above which a carrier-sensing
	// transmitter considers the channel busy.
	CSThresholdDBm float64
}

// DefaultParams returns the environment used by all experiments.
func DefaultParams() Params {
	return Params{
		TxPowerDBm:     0,
		RefLossDB:      40,
		PathLossExp:    2.6,
		ShadowSigmaDB:  4.0,
		NoiseFloorDBm:  -95,
		CSThresholdDBm: -85,
	}
}

// DBmToMW converts decibel-milliwatts to milliwatts.
func DBmToMW(dbm float64) float64 { return math.Pow(10, dbm/10) }

// MWToDBm converts milliwatts to decibel-milliwatts.
func MWToDBm(mw float64) float64 {
	if mw <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(mw)
}

// RxPowerDBm returns the received power over a link of the given distance
// with the given (static) shadowing deviate.
func (p Params) RxPowerDBm(distFeet, shadowDB float64) float64 {
	if distFeet < 1 {
		distFeet = 1
	}
	return p.TxPowerDBm - p.RefLossDB - 10*p.PathLossExp*math.Log10(distFeet) + shadowDB
}

// ChipErrProb returns the probability that a single chip is sliced wrongly
// at the given SINR (linear scale), the coherent MSK error rate
// Q(sqrt(2·SINR)), clamped to 0.5 (a chip can never be worse than random).
func ChipErrProb(sinr float64) float64 {
	if sinr <= 0 {
		return 0.5
	}
	p := stats.Q(math.Sqrt(2 * sinr))
	if p > 0.5 {
		p = 0.5
	}
	return p
}

// Overlap is one transmission as seen by a particular receiver during a
// synthesis window: where its chips start on the receiver's timeline, the
// chips themselves, and its received power.
type Overlap struct {
	// Start is the chip index (relative to the synthesis window origin) at
	// which the transmission's first chip arrives. It may be negative if
	// the transmission began before the window.
	Start int
	// Chips is the transmission's on-air packed chip stream.
	Chips *bitutil.ChipWords
	// PowerMW is the received power of this transmission at the receiver.
	PowerMW float64
}

// End returns the window-relative chip index one past the transmission.
func (o Overlap) End() int { return o.Start + o.Chips.Len() }

// Scratch owns the buffers synthesis reuses from one window to the next:
// the output window, the faded overlaps with the block views they point
// at, and the segment sweep's event lists. A zero Scratch is ready to use.
// The stream a Scratch returns is its own window, valid until that
// Scratch's next call; a caller that must keep chips past it copies them.
// Each goroutine that synthesizes owns its Scratch (a sim delivery worker,
// a netsim shard).
type Scratch struct {
	out          bitutil.ChipWords
	faded        []Overlap
	views        []bitutil.ChipWords
	bounds       []int
	enter, leave []uint64
	active       []int
}

// forEachSegment walks the window [0, n) in maximal spans over which the
// active transmission set is constant, resolving each span once to its
// dominant (strongest) transmission and the total active power. dom is
// nil on pure-noise spans.
//
// Boundaries are every overlap's entry and exit that falls inside (0, n),
// sorted and deduplicated — a zero-length overlap's too, since each
// boundary starts a new run of draws. A sweep then moves overlaps into and
// out of the active set at their clipped entry and exit, keeping the set
// in overlap-index order: total sums the active powers in index order,
// and dom is the first maximum in that order (strict >), exactly as a scan
// of every overlap per span would find them, in time proportional to the
// active set instead of the whole list.
func (s *Scratch) forEachSegment(n int, overlaps []Overlap, fn func(lo, hi int, dom *Overlap, total float64)) {
	bounds := append(s.bounds[:0], 0, n)
	enter, leave := s.enter[:0], s.leave[:0]
	for i, o := range overlaps {
		st, e := o.Start, o.End()
		if st > 0 && st < n {
			bounds = append(bounds, st)
		}
		if e > 0 && e < n {
			bounds = append(bounds, e)
		}
		// Events pack (clipped position, index) so one integer sort
		// orders them; positions lie in [0, n], and n < 2³².
		if lo, hi := max(st, 0), min(e, n); lo < hi {
			enter = append(enter, uint64(lo)<<32|uint64(i))
			leave = append(leave, uint64(hi)<<32|uint64(i))
		}
	}
	slices.Sort(bounds)
	bounds = slices.Compact(bounds)
	slices.Sort(enter)
	slices.Sort(leave)
	s.bounds, s.enter, s.leave = bounds, enter, leave

	active := s.active[:0]
	for bi := 0; bi+1 < len(bounds); bi++ {
		lo, hi := bounds[bi], bounds[bi+1]
		// Every clipped entry and exit is a boundary, so an overlap that
		// entered at or before lo and has not left covers all of [lo, hi).
		for len(leave) > 0 && int(leave[0]>>32) <= lo {
			idx := int(uint32(leave[0]))
			k, _ := slices.BinarySearch(active, idx)
			active = slices.Delete(active, k, k+1)
			leave = leave[1:]
		}
		for len(enter) > 0 && int(enter[0]>>32) <= lo {
			idx := int(uint32(enter[0]))
			k, _ := slices.BinarySearch(active, idx)
			active = slices.Insert(active, k, idx)
			enter = enter[1:]
		}
		var dom *Overlap
		var total float64
		for _, i := range active {
			o := &overlaps[i]
			total += o.PowerMW
			if dom == nil || o.PowerMW > dom.PowerMW {
				dom = o
			}
		}
		fn(lo, hi, dom, total)
	}
	s.active = active[:0]
}

// flipSparse flips each chip of out[lo, hi) independently with probability
// p by geometric skip-sampling: the gap to the next flip is
// ⌊log(U)/log1p(-p)⌋ failures before the next success of a Bernoulli(p)
// sequence, drawn in one shot. Cost is one draw per flip (plus one to run
// off the end), so clean segments are near-free and even a 0.5-probability
// collision segment costs no more per chip than the per-chip Bernoulli it
// replaces.
func flipSparse(rng *stats.RNG, out *bitutil.ChipWords, lo, hi int, p float64) {
	if p <= 0 {
		return
	}
	denom := math.Log1p(-p) // < 0 for p in (0, 1)
	span := float64(hi - lo)
	for t := lo; ; t++ {
		u := 1 - rng.Float64() // (0, 1]: log is finite
		gap := math.Log(u) / denom
		if gap >= span-float64(t-lo) {
			return
		}
		t += int(gap)
		out.FlipBit(t)
	}
}

// Synthesize produces the hard-decision chip stream a receiver observes
// over a window of n chips, given every transmission audible during the
// window and the noise floor. Where no transmission is active the receiver
// slices pure noise (uniform random chips); where one or more are active,
// each chip comes from the strongest, flipped with probability
// ChipErrProb(P_strongest / (noise + ΣP_others)).
//
// The window is processed in segments between transmission boundaries, so
// the active set, dominant signal and chip error probability are computed
// once per segment; within a segment, work is word-level (see the package
// comment), so cost scales with errors rather than chips. The segments
// cover [0, n), so every chip of the reused window is written and it needs
// no clearing. The result is s's window (see Scratch).
func (s *Scratch) Synthesize(rng *stats.RNG, n int, overlaps []Overlap, noiseMW float64) *bitutil.ChipWords {
	if n < 0 || uint64(n) >= 1<<32 {
		panic(fmt.Sprintf("radio: window of %d chips", n))
	}
	out := &s.out
	out.Reset(n)
	s.forEachSegment(n, overlaps, func(lo, hi int, dom *Overlap, total float64) {
		if dom == nil {
			out.FillUniform(lo, hi, rng.Uint64)
			return
		}
		out.CopyFrom(lo, dom.Chips, lo-dom.Start, hi-lo)
		sinr := dom.PowerMW / (noiseMW + (total - dom.PowerMW))
		flipSparse(rng, out, lo, hi, ChipErrProb(sinr))
	})
	return out
}

// DefaultCoherenceChips is the fading coherence interval used by the
// simulator: ~2 ms at 2 Mchip/s, a pedestrian-Doppler indoor coherence
// time. A 1500-byte packet (≈49 ms) spans several independent fade blocks,
// reproducing the paper's observation that SINR "varies in time even
// within a single packet transmission" (Sec. 1). It is a multiple of 64,
// so fading blocks slice the packed transmit stream without copying.
const DefaultCoherenceChips = 4096

// RicianK is the fading model's K factor (LOS-to-scatter power ratio).
// K≈2 is a typical indoor office value: deep fades happen but links spend
// real time in the partially-degraded band where codeword errors scatter —
// exactly the regime where whole fragments die but individual codewords
// survive between errors.
const RicianK = 2.0

// ricianPowerFade draws a unit-mean Rician power fade factor.
func ricianPowerFade(rng *stats.RNG, k float64) float64 {
	// LOS amplitude a with a² = K/(K+1); scattered component is complex
	// Gaussian with per-dimension variance 1/(2(K+1)), giving E[power]=1.
	a := math.Sqrt(k / (k + 1))
	s := math.Sqrt(1 / (2 * (k + 1)))
	x := a + rng.NormFloat64()*s
	y := rng.NormFloat64() * s
	return x*x + y*y
}

// SynthesizeFading is Synthesize with block Rician fading layered on each
// transmission: every coherence interval of every overlap draws an
// independent unit-mean Rician power fade around its mean received power.
// Fading is what pushes marginal links into partial-packet territory even
// without collisions — some stretches of a packet fade out or degrade
// while the rest arrives clean. The result is s's window (see Scratch).
func (s *Scratch) SynthesizeFading(rng *stats.RNG, n int, overlaps []Overlap, noiseMW float64, coherenceChips int) *bitutil.ChipWords {
	if coherenceChips <= 0 {
		return s.Synthesize(rng, n, overlaps, noiseMW)
	}
	blocks := 0
	for _, o := range overlaps {
		blocks += (o.Chips.Len() + coherenceChips - 1) / coherenceChips
	}
	// The views are sized before any faded overlap points into them, so
	// no pointer taken below outlives a reallocation.
	if cap(s.views) < blocks {
		s.views = make([]bitutil.ChipWords, blocks)
	}
	views := s.views[:blocks]
	faded := s.faded[:0]
	for _, o := range overlaps {
		// Split the overlap into coherence blocks, each with its own fade.
		// Block boundaries are aligned to the transmission, not the window,
		// so a given packet fades identically regardless of windowing; when
		// coherenceChips is a multiple of 64 (the default) the blocks are
		// zero-copy views of the transmit stream.
		for blk := 0; blk < o.Chips.Len(); blk += coherenceChips {
			v := &views[len(faded)]
			*v = o.Chips.View(blk, min(blk+coherenceChips, o.Chips.Len()))
			faded = append(faded, Overlap{
				Start:   o.Start + blk,
				Chips:   v,
				PowerMW: o.PowerMW * ricianPowerFade(rng, RicianK),
			})
		}
	}
	s.faded = faded
	return s.Synthesize(rng, n, faded, noiseMW)
}
