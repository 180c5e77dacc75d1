package combine

import (
	"testing"

	"ppr/internal/phy"
	"ppr/internal/stats"
)

func d(sym byte, hint uint8) phy.Decision { return phy.Decision{Symbol: sym, Hint: hint} }

func TestCombineMinHintWins(t *testing.T) {
	// Receiver A confident on symbol 0, receiver B on symbol 1.
	views := []View{
		{Decisions: []phy.Decision{d(3, 0), d(9, 12)}},
		{Decisions: []phy.Decision{d(7, 10), d(5, 1)}},
	}
	got := Combine(2, views)
	if got[0].Symbol != 3 || got[0].Hint != 0 {
		t.Errorf("symbol 0: %+v", got[0])
	}
	if got[1].Symbol != 5 || got[1].Hint != 1 {
		t.Errorf("symbol 1: %+v", got[1])
	}
}

func TestCombineMissingPrefix(t *testing.T) {
	// A missed the first 2 symbols (postamble rollback); B covers them.
	views := []View{
		{MissingPrefix: 2, Decisions: []phy.Decision{d(1, 0), d(2, 0)}},
		{Decisions: []phy.Decision{d(8, 3), d(9, 3)}}, // covers only 0,1
	}
	got := Combine(4, views)
	if got[0].Symbol != 8 || got[1].Symbol != 9 {
		t.Error("prefix not filled from second view")
	}
	if got[2].Symbol != 1 || got[3].Symbol != 2 {
		t.Error("suffix not taken from first view")
	}
}

func TestCombineUncoveredIsInfinite(t *testing.T) {
	views := []View{{Decisions: []phy.Decision{d(1, 0)}}}
	got := Combine(3, views)
	if got[1].Hint != Uncovered || got[2].Hint != Uncovered {
		t.Error("uncovered symbols must carry the Uncovered hint")
	}
}

func TestCombineNoViews(t *testing.T) {
	got := Combine(2, nil)
	for _, g := range got {
		if g.Hint != Uncovered {
			t.Error("no views should leave everything unknown")
		}
	}
}

func TestCoverage(t *testing.T) {
	views := []View{
		{MissingPrefix: 3, Decisions: []phy.Decision{d(0, 0), d(0, 0)}}, // 3,4
		{Decisions: []phy.Decision{d(0, 0), d(0, 0)}},                   // 0,1
	}
	if got := Coverage(6, views); got != 4 {
		t.Errorf("coverage %d, want 4 (symbols 0,1,3,4)", got)
	}
}

func TestBestSingle(t *testing.T) {
	views := []View{
		{Decisions: make([]phy.Decision, 5)},
		{Decisions: make([]phy.Decision, 9)},
		{Decisions: make([]phy.Decision, 2)},
	}
	if got := BestSingle(views); got != 1 {
		t.Errorf("best single %d, want 1", got)
	}
	if BestSingle(nil) != -1 {
		t.Error("no views should give -1")
	}
}

func TestCombineImprovesCorrectness(t *testing.T) {
	// Two receivers each corrupt a different half of the packet (with high
	// hints on the corrupt region); combining must recover nearly all of
	// it, and always at least as much as either alone — the MRD claim.
	rng := stats.NewRNG(1)
	const n = 200
	truth := make([]byte, n)
	for i := range truth {
		truth[i] = byte(rng.Intn(16))
	}
	mkView := func(badLo, badHi int) View {
		v := View{Decisions: make([]phy.Decision, n)}
		for i := 0; i < n; i++ {
			if i >= badLo && i < badHi {
				v.Decisions[i] = d((truth[i]+1+byte(rng.Intn(14)))%16, 8+uint8(rng.Intn(10)))
			} else {
				v.Decisions[i] = d(truth[i], uint8(rng.Intn(2)))
			}
		}
		return v
	}
	a, b := mkView(0, 90), mkView(110, 200)
	count := func(ds []phy.Decision) int {
		c := 0
		for i, dec := range ds {
			if dec.Symbol == truth[i] {
				c++
			}
		}
		return c
	}
	combined := Combine(n, []View{a, b})
	ca, cb, cc := count(a.Decisions), count(b.Decisions), count(combined)
	if cc < ca || cc < cb {
		t.Errorf("combined %d worse than singles %d/%d", cc, ca, cb)
	}
	if cc < n-5 {
		t.Errorf("combined recovered only %d of %d", cc, n)
	}
}

func TestCombinePreservesHintOrdering(t *testing.T) {
	// Property: every combined hint equals the minimum across views at
	// that position.
	rng := stats.NewRNG(2)
	const n = 300
	views := make([]View, 3)
	for vi := range views {
		pre := rng.Intn(20)
		ds := make([]phy.Decision, n-pre-rng.Intn(20))
		for i := range ds {
			ds[i] = d(byte(rng.Intn(16)), uint8(rng.Intn(20)))
		}
		views[vi] = View{MissingPrefix: pre, Decisions: ds}
	}
	combined := Combine(n, views)
	for i := 0; i < n; i++ {
		min := Uncovered
		for _, v := range views {
			if dec, ok := v.at(i); ok && dec.Hint < min {
				min = dec.Hint
			}
		}
		if combined[i].Hint != min {
			t.Fatalf("position %d: hint %v, want %v", i, combined[i].Hint, min)
		}
	}
}
