package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"testing"
)

func TestParseMeasurement(t *testing.T) {
	m, ok := parseMeasurement("123.4 ns/op  55 B/op  3 allocs/op")
	if !ok || m.NsPerOp != 123.4 || m.BytesPerOp != 55 || m.AllocsPerOp != 3 {
		t.Fatalf("parsed %+v, %v", m, ok)
	}
	m, ok = parseMeasurement("987 ns/op  250.5 MB/s")
	if !ok || m.NsPerOp != 987 || m.AllocsPerOp != 0 {
		t.Fatalf("parsed %+v, %v", m, ok)
	}
	if _, ok := parseMeasurement("55 B/op"); ok {
		t.Fatal("accepted a line without ns/op")
	}
}

func TestProcSuffixNormalization(t *testing.T) {
	cases := map[string]string{
		"BenchmarkFoo-8":          "BenchmarkFoo",
		"BenchmarkFoo/w8-16":      "BenchmarkFoo/w8",
		"BenchmarkMeshScaling/w1": "BenchmarkMeshScaling/w1",
	}
	for in, want := range cases {
		if got := procSuffix.ReplaceAllString(in, ""); got != want {
			t.Errorf("normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestAllocsRegressed(t *testing.T) {
	cases := []struct {
		name       string
		prev, cur  float64
		regression bool
	}{
		{"zero to zero", 0, 0, false},
		{"amortized flicker", 0, 0.4, false},
		{"new allocation", 0, 1, true},
		{"steady", 3, 3, false},
		{"one more per op", 3, 4, true},
		{"within threshold", 100, 110, false},
		{"past threshold", 100, 130, true},
		{"large base, tiny bump", 1000, 1000.4, false},
		{"improvement", 5, 2, false},
	}
	for _, c := range cases {
		got := allocsRegressed(Measurement{AllocsPerOp: c.prev}, Measurement{AllocsPerOp: c.cur}, 0.20)
		if got != c.regression {
			t.Errorf("%s (%g -> %g): regressed = %v, want %v", c.name, c.prev, c.cur, got, c.regression)
		}
	}
}

// writeSnap persists a snapshot for the check-mode tests.
func writeSnap(t *testing.T, benchmarks map[string]Measurement) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "snap*.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap := Snapshot{Schema: schemaID, PR: 1, Benchmarks: benchmarks}
	if err := json.NewEncoder(f).Encode(snap); err != nil {
		t.Fatal(err)
	}
	return f.Name()
}

// TestCheckFailsOnMissingBenchmark pins the gate hole: a benchmark present
// in the previous snapshot but gone from the current one must fail the
// check (a deleted benchmark is an unmeasured regression), unless
// -allow-missing downgrades it to a warning.
func TestCheckFailsOnMissingBenchmark(t *testing.T) {
	prev := writeSnap(t, map[string]Measurement{
		"BenchmarkKept": {NsPerOp: 100},
		"BenchmarkGone": {NsPerOp: 200},
	})
	cur := writeSnap(t, map[string]Measurement{
		"BenchmarkKept": {NsPerOp: 100},
	})
	if got := checkSnapshots(prev, cur, 0.20, false); got != 1 {
		t.Errorf("missing benchmark: checkSnapshots = %d, want 1", got)
	}
	if got := checkSnapshots(prev, cur, 0.20, true); got != 0 {
		t.Errorf("missing benchmark with -allow-missing: checkSnapshots = %d, want 0", got)
	}
}

// TestCheckMissingFailsEvenWithoutSharedNames covers the early-return path:
// nothing shared AND something missing is still a failure.
func TestCheckMissingFailsEvenWithoutSharedNames(t *testing.T) {
	prev := writeSnap(t, map[string]Measurement{"BenchmarkGone": {NsPerOp: 200}})
	cur := writeSnap(t, map[string]Measurement{"BenchmarkNew": {NsPerOp: 50}})
	if got := checkSnapshots(prev, cur, 0.20, false); got != 1 {
		t.Errorf("checkSnapshots = %d, want 1", got)
	}
	if got := checkSnapshots(prev, cur, 0.20, true); got != 0 {
		t.Errorf("with -allow-missing: checkSnapshots = %d, want 0", got)
	}
}

func TestCheckPassesWhenAllShared(t *testing.T) {
	prev := writeSnap(t, map[string]Measurement{"BenchmarkKept": {NsPerOp: 100}})
	cur := writeSnap(t, map[string]Measurement{
		"BenchmarkKept": {NsPerOp: 105},
		"BenchmarkNew":  {NsPerOp: 50}, // new benchmarks are fine
	})
	if got := checkSnapshots(prev, cur, 0.20, false); got != 0 {
		t.Errorf("checkSnapshots = %d, want 0", got)
	}
}

func TestEmitKeepsFastestSample(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.CreateTemp(t.TempDir(), "snap")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		fmt.Fprintln(w, "BenchmarkFoo-8   100   200 ns/op   16 B/op   2 allocs/op")
		fmt.Fprintln(w, "BenchmarkFoo-8   100   150 ns/op   16 B/op   1 allocs/op")
		fmt.Fprintln(w, "BenchmarkFoo-8   100   180 ns/op   16 B/op   2 allocs/op")
		w.Close()
	}()
	if err := emit(r, out, 9); err != nil {
		t.Fatal(err)
	}
	snap, err := load(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	m := snap.Benchmarks["BenchmarkFoo"]
	if m.NsPerOp != 150 || m.AllocsPerOp != 1 {
		t.Errorf("kept %+v, want the fastest (150 ns/op) sample", m)
	}
	if want := []float64{200, 150, 180}; !slices.Equal(m.Samples, want) {
		t.Errorf("samples %v, want %v in input order", m.Samples, want)
	}
	if snap.PR != 9 {
		t.Errorf("pr = %d", snap.PR)
	}
}

// TestCheckPairsRounds pins check mode's statistic when both sides hold
// rounds of samples: the median of the per-round ratios, so one lucky
// sample on either side cannot decide the verdict the way min-of-N lets
// it.
func TestCheckPairsRounds(t *testing.T) {
	cases := []struct {
		name      string
		prev, cur []float64
		want      int
	}{
		// Min-of-N reads -30% on cur's one lucky round; every other
		// round is 30% slower.
		{"lucky head sample", []float64{100, 100, 100}, []float64{70, 130, 130}, 1},
		// Min-of-N reads +30% against prev's one lucky round; the other
		// rounds are faster at head.
		{"lucky parent sample", []float64{100, 200, 200}, []float64{130, 130, 130}, 0},
		{"uniform slowdown", []float64{100, 150, 120, 110}, []float64{130, 195, 156, 143}, 1},
		{"equal", []float64{100, 150, 120, 110}, []float64{100, 150, 120, 110}, 0},
	}
	for _, c := range cases {
		prev := writeSnap(t, map[string]Measurement{"BenchmarkK": {NsPerOp: slices.Min(c.prev), Samples: c.prev}})
		cur := writeSnap(t, map[string]Measurement{"BenchmarkK": {NsPerOp: slices.Min(c.cur), Samples: c.cur}})
		if got := checkSnapshots(prev, cur, 0.20, false); got != c.want {
			t.Errorf("%s: checkSnapshots = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestNsDeltaFallsBackToMin: without equal sample counts (a committed
// snapshot from before samples were kept) the fastest samples compare.
func TestNsDeltaFallsBackToMin(t *testing.T) {
	prev := Measurement{NsPerOp: 100}
	cur := Measurement{NsPerOp: 125, Samples: []float64{125, 140}}
	if d, _ := nsDelta(prev, cur); d != 0.25 {
		t.Errorf("delta %v, want 0.25", d)
	}
	prev.Samples = []float64{100, 100}
	cur.Samples = []float64{125, 150}
	if d, _ := nsDelta(prev, cur); d != 0.375 {
		t.Errorf("paired delta %v, want the mean of the middle ratios, 0.375", d)
	}
}
