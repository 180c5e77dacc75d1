// Package combine implements PHY-independent multi-receiver combining, the
// application sketched in the paper's related-work discussion (Sec. 8.4):
// "with PPR, we may be able to obtain the simpler design and
// PHY-independence of the block-based combining of [MRD], while also
// achieving the performance gains of using PHY information."
//
// Several receivers (e.g. the testbed's four sinks) each capture a partial,
// hint-annotated view of the same transmission. Because SoftPHY hints obey
// the monotonicity contract, the combiner needs no PHY knowledge at all:
// for every symbol it simply keeps the decision carried by the smallest
// hint across receivers. Symbols nobody decoded stay unknown and surface
// with the Uncovered hint, which no decoder produces.
package combine

import (
	"math"

	"ppr/internal/phy"
)

// Uncovered is the hint Combine gives a symbol no view decoded. It is the
// largest hint value, above every decoder's range, so it never beats a
// decoded symbol.
const Uncovered uint8 = math.MaxUint8

// View is one receiver's partial view of a packet.
type View struct {
	// MissingPrefix counts leading symbols this receiver never decoded
	// (postamble rollback horizon).
	MissingPrefix int
	// Decisions are the decoded symbols with hints, after the prefix.
	Decisions []phy.Decision
}

// covers reports whether the view decoded symbol index i, and returns the
// decision.
func (v View) at(i int) (phy.Decision, bool) {
	j := i - v.MissingPrefix
	if j < 0 || j >= len(v.Decisions) {
		return phy.Decision{}, false
	}
	return v.Decisions[j], true
}

// Combine merges the views of one packet of numSymbols symbols by minimum
// hint. The result always has numSymbols entries; positions no view
// decoded carry Hint = Uncovered.
func Combine(numSymbols int, views []View) []phy.Decision {
	out := make([]phy.Decision, numSymbols)
	for i := range out {
		out[i] = phy.Decision{Hint: Uncovered}
		for _, v := range views {
			if d, ok := v.at(i); ok && d.Hint < out[i].Hint {
				out[i] = d
			}
		}
	}
	return out
}

// Coverage returns how many of numSymbols symbols at least one view
// decoded.
func Coverage(numSymbols int, views []View) int {
	n := 0
	for i := 0; i < numSymbols; i++ {
		for _, v := range views {
			if _, ok := v.at(i); ok {
				n++
				break
			}
		}
	}
	return n
}

// BestSingle returns the index of the view with the most decoded symbols —
// the non-combining baseline (each packet served by its best receiver).
// It returns -1 for no views.
func BestSingle(views []View) int {
	best, bestN := -1, -1
	for i, v := range views {
		if n := len(v.Decisions); n > bestN {
			best, bestN = i, n
		}
	}
	return best
}
