// Command benchjson converts `go test -bench -benchmem` output into a
// small, schema'd JSON document, and compares two such documents for
// regressions. CI's kernel bench gate compares the parent commit's and the
// head's samples, measured in one session.
//
// Emit mode (default) reads bench output from stdin. A benchmark listed N
// times (`-count N`, or N rounds of runs) keeps its fastest sample's
// triple and all N ns/op samples in input order:
//
//	go test -run '^$' -bench . -benchmem -count 3 . | benchjson -pr 6 > BENCH_6.json
//
// Check mode compares two snapshots and exits nonzero on regression:
//
//	benchjson -check -threshold 0.20 BENCH_5.json BENCH_6.json
//
// With N samples on both sides, sample i of each is one round measured
// back to back, and the ns/op delta is the median of the N per-round
// ratios: load that slows a round slows both its sides, where min-of-N
// lets one lucky sample decide. Otherwise (older snapshots carry no
// samples) the fastest samples compare.
//
// Benchmark names are normalized by stripping the trailing -GOMAXPROCS
// suffix so snapshots compare across machines.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Snapshot is the persisted benchmark document (schema ppr-bench/v1).
type Snapshot struct {
	// Schema identifies the document format.
	Schema string `json:"schema"`
	// PR is the pull-request ordinal the snapshot belongs to.
	PR int `json:"pr"`
	// Benchmarks maps normalized benchmark names to their measurements.
	Benchmarks map[string]Measurement `json:"benchmarks"`
}

// Measurement is one benchmark's fastest result triple, plus the ns/op of
// every sample in input (round) order.
type Measurement struct {
	NsPerOp     float64   `json:"ns_per_op"`
	BytesPerOp  float64   `json:"bytes_per_op"`
	AllocsPerOp float64   `json:"allocs_per_op"`
	Samples     []float64 `json:"samples,omitempty"`
}

const schemaID = "ppr-bench/v1"

// benchLine matches one result line of `go test -bench` output.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+(.*)$`)

// procSuffix is the trailing -GOMAXPROCS decoration on benchmark names.
var procSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	pr := flag.Int("pr", 0, "PR ordinal stamped into the emitted snapshot")
	check := flag.Bool("check", false, "compare two snapshots: benchjson -check PREV CUR")
	threshold := flag.Float64("threshold", 0.20, "max allowed ns/op regression fraction in -check mode")
	allowMissing := flag.Bool("allow-missing", false,
		"in -check mode, warn instead of fail when benchmarks in PREV are missing from CUR")
	flag.Parse()

	if *check {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchjson -check [-threshold F] [-allow-missing] PREV.json CUR.json")
			os.Exit(2)
		}
		os.Exit(checkSnapshots(flag.Arg(0), flag.Arg(1), *threshold, *allowMissing))
	}
	if err := emit(os.Stdin, os.Stdout, *pr); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// emit parses bench output from r and writes the snapshot JSON to w.
func emit(r *os.File, w *os.File, pr int) error {
	snap := Snapshot{Schema: schemaID, PR: pr, Benchmarks: map[string]Measurement{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := procSuffix.ReplaceAllString(m[1], "")
		meas, ok := parseMeasurement(m[2])
		if !ok {
			continue
		}
		// Interference only ever slows a run down: keep the fastest triple.
		prev, dup := snap.Benchmarks[name]
		samples := append(prev.Samples, meas.NsPerOp)
		if dup && prev.NsPerOp <= meas.NsPerOp {
			meas = prev
		}
		meas.Samples = samples
		snap.Benchmarks[name] = meas
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(snap.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark result lines on stdin")
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// parseMeasurement extracts the ns/op, B/op and allocs/op value-unit pairs
// from the tail of a bench line, ignoring MB/s and custom metrics.
func parseMeasurement(tail string) (Measurement, bool) {
	fields := strings.Fields(tail)
	var meas Measurement
	seenNs := false
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			meas.NsPerOp = v
			seenNs = true
		case "B/op":
			meas.BytesPerOp = v
		case "allocs/op":
			meas.AllocsPerOp = v
		}
	}
	return meas, seenNs
}

// checkSnapshots compares CUR against PREV, printing a delta table and
// returning 1 when any shared benchmark's ns/op regressed past threshold —
// or when a benchmark present in PREV has vanished from CUR (a deleted or
// renamed benchmark silently escaping the gate), unless allowMissing
// downgrades that to a warning.
func checkSnapshots(prevPath, curPath string, threshold float64, allowMissing bool) int {
	prev, err := load(prevPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	cur, err := load(curPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	var missing []string
	for name := range prev.Benchmarks {
		if _, ok := cur.Benchmarks[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	failed := false
	for _, name := range missing {
		status := "MISSING"
		if allowMissing {
			status = "missing (allowed)"
		} else {
			failed = true
		}
		fmt.Printf("%-50s %14.0f -> %14s ns/op  %s\n",
			name, prev.Benchmarks[name].NsPerOp, "gone", status)
	}
	var names []string
	for name := range cur.Benchmarks {
		if _, ok := prev.Benchmarks[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 && !failed {
		fmt.Printf("no shared benchmarks between %s and %s; nothing to check\n", prevPath, curPath)
		return 0
	}
	for _, name := range names {
		p, c := prev.Benchmarks[name], cur.Benchmarks[name]
		if p.NsPerOp <= 0 {
			continue
		}
		delta, stat := nsDelta(p, c)
		status := "ok"
		if delta > threshold {
			status = "REGRESSION"
			failed = true
		}
		if allocsRegressed(p, c, threshold) {
			status = "ALLOC REGRESSION"
			failed = true
		}
		fmt.Printf("%-50s %14.0f -> %14.0f ns/op  %+6.1f%% %-10s %6.1f -> %6.1f allocs/op  %s\n",
			name, p.NsPerOp, c.NsPerOp, delta*100, stat, p.AllocsPerOp, c.AllocsPerOp, status)
	}
	if failed {
		fmt.Printf("FAIL: ns/op or allocs/op regression beyond %.0f%%, or missing benchmarks (PR %d -> PR %d)\n",
			threshold*100, prev.PR, cur.PR)
		return 1
	}
	fmt.Printf("all %d shared benchmarks within %.0f%% (PR %d -> PR %d)\n",
		len(names), threshold*100, prev.PR, cur.PR)
	return 0
}

// nsDelta is CUR's ns/op change against PREV as a fraction: the median of
// the per-round ratios when both sides hold the same number of samples,
// else the ratio of the fastest samples. stat names the statistic used.
func nsDelta(prev, cur Measurement) (delta float64, stat string) {
	n := len(prev.Samples)
	if n == 0 || len(cur.Samples) != n {
		return cur.NsPerOp/prev.NsPerOp - 1, "(min)"
	}
	ratios := make([]float64, n)
	for i := range ratios {
		ratios[i] = cur.Samples[i] / prev.Samples[i]
	}
	sort.Float64s(ratios)
	med := (ratios[(n-1)/2] + ratios[n/2]) / 2
	return med - 1, fmt.Sprintf("(paired %d)", n)
}

// allocsRegressed reports whether cur's allocs/op meaningfully regressed
// against prev: past the relative threshold AND by more than half an
// allocation, so counting noise around tiny or zero baselines (a 0→0.4
// flicker from amortized growth) never fails the gate while a genuine new
// per-op allocation (0→1, 3→4) always does.
func allocsRegressed(prev, cur Measurement, threshold float64) bool {
	return cur.AllocsPerOp > prev.AllocsPerOp*(1+threshold) &&
		cur.AllocsPerOp-prev.AllocsPerOp > 0.5
}

// load reads and validates one snapshot file.
func load(path string) (Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Snapshot{}, err
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return Snapshot{}, fmt.Errorf("%s: %w", path, err)
	}
	if snap.Schema != schemaID {
		return Snapshot{}, fmt.Errorf("%s: schema %q, want %q", path, snap.Schema, schemaID)
	}
	return snap, nil
}
