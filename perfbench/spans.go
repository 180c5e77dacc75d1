package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ppr/internal/obs"
)

// spans records, in memory, a span around every call the benchmark makes
// into a layer, named for the module it enters. A nil *spans (the untraced
// run) records nothing. Each driving goroutine records on its own lane, so
// recording takes no lock; lanes are merged when the run ends.
type spans struct {
	mu     sync.Mutex
	t0, t1 time.Time
	main   *lane
	lanes  []*lane
}

// lane is one goroutine's span log. Spans nest: a span begun while another
// is open on the lane records it as its parent.
type lane struct {
	id    int
	recs  []spanRec
	stack []int
}

type spanRec struct {
	name       string
	start, end time.Time
	parent     int // index into the lane's recs, -1 for a root span
}

func newSpans() *spans {
	s := &spans{}
	s.main = s.lane()
	return s
}

// lane adds a lane for one driving goroutine.
func (s *spans) lane() *lane {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	l := &lane{id: len(s.lanes)}
	s.lanes = append(s.lanes, l)
	return l
}

func (s *spans) markStart(t time.Time) {
	if s != nil {
		s.t0 = t
	}
}

func (s *spans) markEnd(t time.Time) {
	if s != nil {
		s.t1 = t
	}
}

// begin opens a span on the main lane.
func (s *spans) begin(name string) func() {
	if s == nil {
		return noop
	}
	return s.main.begin(name)
}

func noop() {}

// begin opens a span; calling the returned func closes it.
func (l *lane) begin(name string) func() {
	if l == nil {
		return noop
	}
	parent := -1
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1]
	}
	i := len(l.recs)
	l.recs = append(l.recs, spanRec{name: name, start: time.Now(), parent: parent})
	l.stack = append(l.stack, i)
	return func() {
		l.recs[i].end = time.Now()
		l.stack = l.stack[:len(l.stack)-1]
	}
}

// durations returns every span of one name, in seconds.
func (s *spans) durations(name string) []float64 {
	var out []float64
	for _, l := range s.lanes {
		for _, r := range l.recs {
			if r.name == name {
				out = append(out, r.end.Sub(r.start).Seconds())
			}
		}
	}
	return out
}

// leafSeconds sums, over every lane, the spans that have no child: the
// time the benchmark spent inside a layer call, each instant counted once
// per lane.
func (s *spans) leafSeconds() float64 {
	total := 0.0
	for _, l := range s.lanes {
		hasChild := make([]bool, len(l.recs))
		for _, r := range l.recs {
			if r.parent >= 0 {
				hasChild[r.parent] = true
			}
		}
		for i, r := range l.recs {
			if !hasChild[i] {
				total += r.end.Sub(r.start).Seconds()
			}
		}
	}
	return total
}

// busyLanes counts lanes that recorded a span.
func (s *spans) busyLanes() int {
	n := 0
	for _, l := range s.lanes {
		if len(l.recs) > 0 {
			n++
		}
	}
	return n
}

// writeFile writes the spans as a Chrome trace-format document (loadable
// in Perfetto), one trace lane per span lane, timestamps from the start of
// the timed phase.
func (s *spans) writeFile(path string) error {
	ns := func(t time.Time) int64 { return t.Sub(s.t0).Nanoseconds() }
	tr := obs.NewTracer()
	proc := tr.Process("perfbench", 1e-3) // ticks are ns
	proc.Lane(-1, "timed phase").Span("timed phase", "", 0, ns(s.t1), nil)
	for _, l := range s.lanes {
		tl := proc.Lane(int64(l.id), fmt.Sprintf("lane %d", l.id))
		for _, r := range l.recs {
			var args map[string]any
			if r.parent >= 0 {
				args = map[string]any{"parent": l.recs[r.parent].name}
			}
			tl.Span(r.name, "", ns(r.start), r.end.Sub(r.start).Nanoseconds(), args)
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
