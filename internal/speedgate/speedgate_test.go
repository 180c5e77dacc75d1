package speedgate

import (
	"strings"
	"testing"
)

// TestCompareInterleaves pins the round structure: after one calibration
// call each, the two sides alternate round by round.
func TestCompareInterleaves(t *testing.T) {
	var trace []byte
	fast := func() { trace = append(trace, 'f') }
	ref := func() { trace = append(trace, 'r') }
	Compare(fast, ref)
	// Collapse runs: calibration (f, r), then Rounds (f…, r…) rounds.
	var runs []byte
	for i, c := range trace {
		if i == 0 || c != trace[i-1] {
			runs = append(runs, c)
		}
	}
	if got, want := string(runs), strings.Repeat("fr", 1+Rounds); got != want {
		t.Fatalf("call order %q, want %q: calibration then alternating rounds", got, want)
	}
}

// TestCompareRatio checks the ratio direction on two sides of known
// relative cost: ref does eight times fast's work.
func TestCompareRatio(t *testing.T) {
	var sink uint64
	work := func(n int) func() {
		return func() {
			for i := 0; i < n; i++ {
				sink = sink*6364136223846793005 + 1442695040888963407
			}
		}
	}
	r := Compare(work(2000), work(16000))
	if r.Ratio < 2 || r.FastNs <= 0 || r.RefNs <= r.FastNs {
		t.Fatalf("ref with 8x the work measured %+v, want a ratio well above 1", r)
	}
	_ = sink
}
