package experiments

import (
	"reflect"
	"sync"
	"testing"

	"ppr/internal/phy"
	"ppr/internal/schemes"
	"ppr/internal/sim"
)

// scoring is one PerLinkDelivery request.
type scoring struct {
	s schemes.RecoveryScheme
	p SchemeParams
}

// allScorings pairs every registered scheme with the default parameters
// and with a second set that changes every knob.
func allScorings() []scoring {
	p := DefaultSchemeParams()
	q := SchemeParams{FragBytes: 10, Eta: 2, FECDataBytes: 10, InterleaveRows: 16, InterleaveCols: 32}
	var out []scoring
	for _, s := range schemes.All() {
		out = append(out, scoring{s, p}, scoring{s, q})
	}
	return out
}

// TestPostMemoNeverSharesEntries scores every scheme under two Params on
// one Post: each scoring gets its own memo entry, and each matches a fresh
// Post's answer, so neither a second scheme nor a second parameter set
// reads an earlier scoring's memo.
func TestPostMemoNeverSharesEntries(t *testing.T) {
	tr := quickOpts().Trace(LoadHigh, false)
	shared := tr.Post(0)
	calls := allScorings()
	for _, c := range calls {
		for variant := range sim.VariantNames {
			got := shared.PerLinkDelivery(variant, c.s, c.p)
			if want := tr.Post(0).PerLinkDelivery(variant, c.s, c.p); !reflect.DeepEqual(got, want) {
				t.Errorf("%s %+v variant %d: shared Post disagrees with a fresh one", c.s.Name(), c.p, variant)
			}
		}
	}
	entries := 0
	shared.memos.Range(func(_, _ any) bool { entries++; return true })
	if entries != len(calls) {
		t.Errorf("%d memo entries for %d distinct scorings", entries, len(calls))
	}
}

// TestPostConcurrentPerLinkDelivery calls PerLinkDelivery for every
// scoring and variant from several goroutines at once on one Post (run it
// under -race); each answer must equal a sequential Post's.
func TestPostConcurrentPerLinkDelivery(t *testing.T) {
	tr := quickOpts().Trace(LoadHigh, false)
	calls := allScorings()
	seq := NewPost(tr.Outs, tr.Cfg.PacketBytes, 1)
	want := make([][2]map[LinkKey]LinkAccum, len(calls))
	for i, c := range calls {
		for variant := range want[i] {
			want[i][variant] = seq.PerLinkDelivery(variant, c.s, c.p)
		}
	}
	pp := tr.Post(4)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := range calls {
				i := (j + g) % len(calls) // goroutines start on different scorings
				variant := (j + g) % 2
				if got := pp.PerLinkDelivery(variant, calls[i].s, calls[i].p); !reflect.DeepEqual(got, want[i][variant]) {
					t.Errorf("goroutine %d, %s variant %d: concurrent answer differs", g, calls[i].s.Name(), variant)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPostCopiedTraceScoresIdentically deep-copies a trace's Decisions so
// no postamble outcome aliases its no-postamble twin any more: every
// outcome is then scored on its own, and every answer must equal the
// original trace's, which copies shared receptions' scores.
func TestPostCopiedTraceScoresIdentically(t *testing.T) {
	tr := quickOpts().Trace(LoadHigh, false)
	cp := make([]sim.Outcome, len(tr.Outs))
	copy(cp, tr.Outs)
	shared, stillShared := 0, 0
	for i := range cp {
		cp[i].Decisions = append([]phy.Decision(nil), cp[i].Decisions...)
		if i == 0 || len(cp[i].Decisions) == 0 {
			continue
		}
		if sameReception(&tr.Outs[i-1], &tr.Outs[i]) {
			shared++
		}
		if sameReception(&cp[i-1], &cp[i]) {
			stillShared++
		}
	}
	if shared == 0 || stillShared != 0 {
		t.Fatalf("%d shared receptions in the trace, %d left in the copy; want some, then none", shared, stillShared)
	}
	orig, copied := tr.Post(0), NewPost(cp, tr.Cfg.PacketBytes, 0)
	for _, c := range allScorings() {
		for variant := range sim.VariantNames {
			if a, b := orig.PerLinkDelivery(variant, c.s, c.p), copied.PerLinkDelivery(variant, c.s, c.p); !reflect.DeepEqual(a, b) {
				t.Errorf("%s %+v variant %d: copied trace scores differently", c.s.Name(), c.p, variant)
			}
		}
	}
}

// TestFanOutRunsEveryIndexOnce pins fanOut's contract (run it under
// -race): every index of [0, n) runs exactly once for any worker count, in
// calls of at most 64 indices unless one worker takes everything; with at
// least 64 indices per worker, every call starts at a multiple of 64, so
// no no-postamble/postamble twin pair straddles two calls; and 48 items on
// 2 workers (Fig. 17's cells) run as two calls of 24.
func TestFanOutRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 47, 48, 64, 65, 129, 5204} {
		for _, workers := range []int{0, 1, 2, 3, 8} {
			runs := make([]int, n)
			var mu sync.Mutex
			var calls [][2]int
			fanOut(n, workers, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					runs[i]++ // each index belongs to one call
				}
				mu.Lock()
				calls = append(calls, [2]int{lo, hi})
				mu.Unlock()
			})
			for i, r := range runs {
				if r != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, workers, i, r)
				}
			}
			for _, c := range calls {
				lo, hi := c[0], c[1]
				if lo >= hi || hi-lo > 64 && len(calls) > 1 {
					t.Errorf("n=%d workers=%d: call [%d, %d) is empty or longer than 64", n, workers, lo, hi)
				}
				if workers > 0 && n >= 64*workers && lo%64 != 0 {
					t.Errorf("n=%d workers=%d: call [%d, %d) does not start a 64-chunk", n, workers, lo, hi)
				}
				if n == 48 && workers == 2 && hi-lo != 24 {
					t.Errorf("48 items on 2 workers ran as %v, want two calls of 24", calls)
				}
			}
		}
	}
}
