// Package softphy implements the link-layer side of the SoftPHY interface
// (Sec. 3): interpreting per-symbol PHY hints with a threshold rule to label
// groups of bits "good" or "bad", and adapting that threshold from observed
// outcomes so that higher layers never depend on the semantics of any
// particular PHY's hint (the abstraction argument of Sec. 3.3).
package softphy

import (
	"fmt"

	"ppr/internal/phy"
)

// Label is the link layer's verdict on one symbol.
type Label uint8

const (
	// Good marks a symbol whose hint cleared the threshold (d ≤ η).
	Good Label = iota
	// Bad marks a symbol the link layer believes is in error (d > η).
	Bad
)

// String implements fmt.Stringer.
func (l Label) String() string {
	if l == Good {
		return "good"
	}
	return "bad"
}

// DefaultEta is the paper's operating threshold for the Hamming-distance
// hint: codewords with d ≤ 6 are labelled good (Sec. 7.2: "Here we choose
// η = 6").
const DefaultEta = 6.0

// Threshold is the static threshold rule of Sec. 3.2: hint ≤ Eta ⇒ Good.
type Threshold struct {
	// Eta is the hint cutoff; symbols with hints strictly above it are
	// labelled Bad.
	Eta float64
}

// Label applies the rule to a single hint.
func (t Threshold) Label(hint float64) Label {
	if hint <= t.Eta {
		return Good
	}
	return Bad
}

// LabelAll labels a decision stream, with missingPrefix symbols that were
// never decoded (postamble rollback horizon) prepended as Bad — the link
// layer knows nothing about them, so it must request them.
func (t Threshold) LabelAll(missingPrefix int, ds []phy.Decision) []Label {
	out := make([]Label, missingPrefix+len(ds))
	for i := 0; i < missingPrefix; i++ {
		out[i] = Bad
	}
	for i, d := range ds {
		out[missingPrefix+i] = t.Label(float64(d.Hint))
	}
	return out
}

// Adaptive learns the threshold online, the mechanism Sec. 3.3 sketches:
// the link layer observes, for symbols whose correctness it later verifies
// (via PP-ARQ's per-run CRCs), the joint distribution of hint value and
// correctness, and picks the η minimising the expected cost of labelling
// errors. Only the PHY's monotonicity contract is assumed; nothing about
// the hint's absolute scale.
type Adaptive struct {
	// MissCost weighs delivering a wrong symbol as good (a "miss", which
	// forces an extra recovery round); FalseAlarmCost weighs retransmitting
	// a correct symbol (one wasted codeword, Sec. 7.4.2 notes this is
	// cheap). MissCost should therefore exceed FalseAlarmCost.
	MissCost, FalseAlarmCost float64
	// buckets quantise the hint axis; bucket i counts hints in [i, i+1).
	correct   []uint64
	incorrect []uint64
	// cached threshold, recomputed lazily after observations change it.
	eta   float64
	dirty bool
}

// maxBucket bounds the quantised hint axis; hints beyond it clamp into the
// last bucket. 64 covers every decoder in this codebase (HDD ≤ 32, MF ≤ 64).
const maxBucket = 64

// NewAdaptive returns an adaptive thresholder with the given error costs
// and an initial threshold, used until enough observations accumulate.
func NewAdaptive(missCost, faCost, initialEta float64) *Adaptive {
	if missCost <= 0 || faCost <= 0 {
		panic(fmt.Sprintf("softphy: non-positive costs %v, %v", missCost, faCost))
	}
	return &Adaptive{
		MissCost:       missCost,
		FalseAlarmCost: faCost,
		correct:        make([]uint64, maxBucket+1),
		incorrect:      make([]uint64, maxBucket+1),
		eta:            initialEta,
	}
}

// Observe records one verified outcome: a symbol carried the given hint and
// was ultimately correct or not.
func (a *Adaptive) Observe(hint float64, wasCorrect bool) {
	b := int(hint)
	if b < 0 {
		b = 0
	}
	if b > maxBucket {
		b = maxBucket
	}
	if wasCorrect {
		a.correct[b]++
	} else {
		a.incorrect[b]++
	}
	a.dirty = true
}

// minObservations gates adaptation: below this total the initial η stands.
const minObservations = 200

// Eta returns the current threshold, recomputing it if new observations
// arrived. The optimal η minimises
//
//	MissCost · #[incorrect with hint ≤ η] + FalseAlarmCost · #[correct with hint > η]
//
// over bucket boundaries, which is exactly the empirical expected labelling
// cost under the two error modes.
func (a *Adaptive) Eta() float64 {
	if !a.dirty {
		return a.eta
	}
	a.dirty = false
	var totalC, totalI uint64
	for i := 0; i <= maxBucket; i++ {
		totalC += a.correct[i]
		totalI += a.incorrect[i]
	}
	if totalC+totalI < minObservations {
		return a.eta
	}
	bestEta, bestCost := a.eta, 0.0
	first := true
	var cumI, cumC uint64
	// η = -1 (label everything bad) is the degenerate left end; then each
	// bucket boundary.
	for b := -1; b <= maxBucket; b++ {
		if b >= 0 {
			cumI += a.incorrect[b]
			cumC += a.correct[b]
		}
		misses := cumI               // incorrect labelled good
		falseAlarms := totalC - cumC // correct labelled bad
		cost := a.MissCost*float64(misses) + a.FalseAlarmCost*float64(falseAlarms)
		if first || cost < bestCost {
			first = false
			bestCost = cost
			bestEta = float64(b)
		}
	}
	a.eta = bestEta
	return a.eta
}

// Label applies the current adaptive threshold.
func (a *Adaptive) Label(hint float64) Label {
	return Threshold{Eta: a.Eta()}.Label(hint)
}

// LabelAll labels a decision stream under the current adaptive threshold.
func (a *Adaptive) LabelAll(missingPrefix int, ds []phy.Decision) []Label {
	return Threshold{Eta: a.Eta()}.LabelAll(missingPrefix, ds)
}

// Labeler is the interface PP-ARQ consumes: anything that can label a
// decision stream. Both Threshold and *Adaptive satisfy it.
type Labeler interface {
	// LabelAll labels missingPrefix undecoded symbols plus the decoded
	// decisions, in order.
	LabelAll(missingPrefix int, ds []phy.Decision) []Label
}

var (
	_ Labeler = Threshold{}
	_ Labeler = (*Adaptive)(nil)
)

// MissRate returns, from the adaptive observer's history, the fraction of
// incorrect symbols that a threshold eta would mislabel good — the "miss
// rate at threshold η" of Sec. 7.4.1. Returns 0 when nothing was observed.
func (a *Adaptive) MissRate(eta float64) float64 {
	var miss, total uint64
	for b := 0; b <= maxBucket; b++ {
		total += a.incorrect[b]
		if float64(b) <= eta {
			miss += a.incorrect[b]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(miss) / float64(total)
}

// FalseAlarmRate returns the fraction of correct symbols that threshold eta
// would mislabel bad — the false alarm rate of Sec. 7.4.2.
func (a *Adaptive) FalseAlarmRate(eta float64) float64 {
	var fa, total uint64
	for b := 0; b <= maxBucket; b++ {
		total += a.correct[b]
		if float64(b) > eta {
			fa += a.correct[b]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(fa) / float64(total)
}
