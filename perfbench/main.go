// Command perfbench is the repository's benchmark: it drives the PPR
// reproduction through its public package functions on one of three
// workloads, checks every output, and prints each metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with the obs
// registry, the CPU profiler and runtime/metrics all off, and with their
// times scaled to a reference host speed (see hostProbe). With -trace 1 the
// run is split in two halves — untraced, then traced — and the metrics are
// the per-layer ones, taken from the traced half; bench.trace_overhead is
// the traced half's throughput over the untraced half's.
//
// Usage:
//
//	perfbench -workload figures|fig17|serve -seed N -seconds S -trace 0|1
//
// Workloads (see README.md for why each was chosen):
//
//	figures  cold trace fill at the paper's high-load point, then every
//	         registered recovery scheme scores it
//	fig17    paper-scale closed-loop Fig. 17 simulation
//	serve    pprd flow cycles over loopback TCP against an in-process
//	         linkserv.Server
//
// The process exits 1 when an output check fails and 2 on a usage or
// set-up error; it prints no result line in the second case.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"ppr/internal/obs"
	"ppr/internal/stats"
)

// setupRepeats is how many times a run builds its workload state; setup_s
// is the median, so one slow build on a noisy host does not move it.
const setupRepeats = 7

// tally is what a timed phase did: ops attempted and verified, split into
// windows. Each end-to-end rate is the median over windows, and so is each
// latency percentile where windows are long enough to hold one, so a burst
// of load from elsewhere on the host moves a few windows, not the result.
type tally struct {
	attempted, ok int
	windows       []window
}

// window is one slice of a timed phase: one second of the serve loop, or
// the whole of a figures or fig17 run.
type window struct {
	ok        int
	wall, cpu time.Duration
	latencies []float64 // user-visible request latencies, ms
}

// windowClock times one stretch of work.
type windowClock struct {
	t0   time.Time
	cpu0 time.Duration
}

func startWindow() windowClock { return windowClock{t0: time.Now(), cpu0: cpuTime()} }

// end closes the stretch as a window.
func (c windowClock) end(ok int, latencies []float64) window {
	return window{ok: ok, wall: time.Since(c.t0), cpu: cpuTime() - c.cpu0, latencies: latencies}
}

// scaled returns t with every time multiplied by speed.
func (t tally) scaled(speed float64) tally {
	ws := make([]window, len(t.windows))
	for i, w := range t.windows {
		lat := make([]float64, len(w.latencies))
		for j, l := range w.latencies {
			lat[j] = l * speed
		}
		ws[i] = window{ok: w.ok, wall: scaleDur(w.wall, speed), cpu: scaleDur(w.cpu, speed), latencies: lat}
	}
	t.windows = ws
	return t
}

func scaleDur(d time.Duration, speed float64) time.Duration {
	return time.Duration(float64(d) * speed)
}

// perWindow returns f over every window that completed an op.
func (t tally) perWindow(f func(w window) float64) []float64 {
	var out []float64
	for _, w := range t.windows {
		if w.ok > 0 {
			out = append(out, f(w))
		}
	}
	return out
}

func (t tally) opsPerSec() float64 {
	return stats.MedianOrZero(t.perWindow(func(w window) float64 { return float64(w.ok) / w.wall.Seconds() }))
}

func (t tally) cpuMsPerOp() float64 {
	return stats.MedianOrZero(t.perWindow(func(w window) float64 { return float64(w.cpu.Microseconds()) / 1e3 / float64(w.ok) }))
}

// cycles runs cycle on deployments 0, 1, 2, ... (each drawn afresh from
// the seed) and ends on the cycle boundary nearest the deadline: it
// finishes every cycle it starts and starts another only while that one
// would end nearer the deadline than stopping now, but it runs at least
// minCycles. Each cycle is one request latency. The cycles' times add up
// to the run's one window, so its rates pool every deployment the run saw
// rather than pick the middle one. The host is probed after every cycle.
func cycles(deadline time.Time, minCycles int, sm *speedometer, cycle func(d int) (attempted, ok int, err error)) (tally, error) {
	var (
		t   tally
		all window
	)
	start := time.Now()
	for d := 0; ; d++ {
		if now := time.Now(); d >= max(minCycles, 1) && !now.Add(now.Sub(start)/time.Duration(2*d)).Before(deadline) {
			t.windows = []window{all}
			return t, nil
		}
		clock := startWindow()
		attempted, ok, err := cycle(d)
		if err != nil {
			return t, err
		}
		w := clock.end(ok, nil)
		sm.probe()
		t.attempted += attempted
		t.ok += ok
		all.ok += ok
		all.wall += w.wall
		all.cpu += w.cpu
		all.latencies = append(all.latencies, float64(w.wall.Microseconds())/1e3)
	}
}

// minWindowSamples is the smallest window whose own p99 has ten samples
// beyond it.
const minWindowSamples = 1000

// latency returns the q-quantile request latency and the sample count.
// When every window holds minWindowSamples, it is the median over windows
// of each window's quantile, so load from elsewhere on the host that slows
// a few windows does not move it; else it is the quantile of all samples.
func (t tally) latency(q float64) (float64, int) {
	var all []float64
	perWindow := len(t.windows) > 0
	for _, w := range t.windows {
		all = append(all, w.latencies...)
		perWindow = perWindow && len(w.latencies) >= minWindowSamples
	}
	switch {
	case len(all) == 0:
		return 0, 0
	case perWindow:
		return stats.MedianOrZero(t.perWindow(func(w window) float64 { return stats.Quantile(w.latencies, q) })), len(all)
	}
	return stats.Quantile(all, q), len(all)
}

// workload is one benchmark input set. The harness times setup and run;
// check runs after the timed phase and is not timed.
type workload interface {
	// setup builds fresh state, releasing any earlier state first.
	setup() error
	// run measures until the deadline, finishing the op in flight, and
	// probes the host with sm after every window.
	run(deadline time.Time, sp *spans, sm *speedometer) (tally, error)
	// check verifies outputs that are too costly to verify while timing.
	// It returns the number of ops it found wrong.
	check() (failed int, err error)
	// endToEnd adds the workload's own end-to-end metrics (pp_gain).
	endToEnd(m metrics)
	// close releases the workload's state and waits for its goroutines.
	close()
}

func newWorkload(name string, seed uint64, workers int) (workload, error) {
	switch name {
	case "figures":
		return &figures{seed: seed, workers: workers, gainRuns: 6}, nil
	case "fig17":
		return &fig17{seed: seed, workers: workers, gainRuns: 8}, nil
	case "serve":
		return &serve{seed: seed, conns: workers}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want figures, fig17 or serve)", name)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// note is printed beside the value in the human-readable table (the
	// paper's figure, a sample count, or the end-to-end metric a layer
	// metric should move); it is not part of the JSON result.
	note string
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit, note string) {
	m[name] = metric{Value: v, Unit: unit, note: note}
}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// phase is one measured timed phase.
type phase struct {
	wall   time.Duration
	tally  tally
	failed int
}

func (p phase) opsPerSec() float64 { return p.tally.opsPerSec() }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: figures, fig17 or serve")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 30, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 = per-layer run (obs registry, CPU profile, runtime/metrics)")
	spansOut := fs.String("spans", "", "write the traced half's spans to this file (Chrome trace JSON)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be > 0 and -trace 0 or 1")
		return 2
	}
	// Engine workers and client connections: what pprsim and pprd users
	// get by default.
	workers := runtime.NumCPU()
	if _, err := newWorkload(*name, *seed, workers); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	mk := func() workload { w, _ := newWorkload(*name, *seed, workers); return w }

	var (
		res result
		err error
	)
	if *trace == 0 {
		res, err = untracedRun(mk(), time.Duration(*seconds*float64(time.Second)), newHostProbe(workers))
	} else {
		res, err = tracedRun(mk, time.Duration(*seconds*float64(time.Second)), *spansOut)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	printTable(stdout, *name, res.Metrics)
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d ops failed their output check\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// untracedRun measures the end-to-end metrics. Every time it reports is
// scaled to the reference host speed by the probes hp takes between
// set-ups and between windows (see hostProbe).
func untracedRun(w workload, dur time.Duration, hp *hostProbe) (result, error) {
	defer w.close()
	sm := newSpeedometer(hp)
	setup, err := timedSetup(w, sm)
	if err != nil {
		return result{}, err
	}
	p, err := measure(w, dur, nil, sm, nil)
	if err != nil {
		return result{}, err
	}
	speed := sm.speed()
	p.tally = p.tally.scaled(speed)
	m := metrics{}
	t := p.tally
	m.set("setup_s", setup*speed, "s", fmt.Sprintf("median of %d", setupRepeats))
	m.set("ops_per_s", p.opsPerSec(), "1/s", fmt.Sprintf("median of %d windows; %d ops in %.2fs of wall time at host speed %.3f (median of %d probes)",
		len(t.windows), t.ok, p.wall.Seconds(), speed, len(sm.times)))
	m.set("cpu_ms_per_op", t.cpuMsPerOp(), "ms", fmt.Sprintf("median of %d windows", len(t.windows)))
	m.set("max_rss_mb", maxRSSMB(), "MB", "")
	m.set("ok_ratio", float64(t.attempted-p.failed)/float64(max(t.attempted, 1)), "ratio", "")
	p50, n := t.latency(0.5)
	p99, _ := t.latency(0.99)
	above := 0
	for _, w := range t.windows {
		for _, l := range w.latencies {
			if l > p99 {
				above++
			}
		}
	}
	m.set("transfer_p50_ms", p50, "ms", fmt.Sprintf("n=%d", n))
	m.set("transfer_p99_ms", p99, "ms", fmt.Sprintf("n=%d, %d above", n, above))
	w.endToEnd(m)
	return result{
		Correct:   p.failed == 0,
		Attempted: t.attempted,
		Failed:    p.failed,
		Metrics:   m,
	}, nil
}

// tracedRun measures the per-layer metrics: an untraced half for the
// overhead baseline, then a traced half on fresh state built with the obs
// registry enabled (handles resolve at construction).
func tracedRun(mk func() workload, dur time.Duration, spansOut string) (result, error) {
	half := dur / 2
	base := mk()
	if err := base.setup(); err != nil {
		base.close()
		return result{}, err
	}
	bp, err := measure(base, half, nil, nil, nil)
	base.close()
	if err != nil {
		return result{}, err
	}

	obs.SetDefault(obs.New())
	defer obs.SetDefault(nil)
	w := mk()
	defer w.close()
	if err := w.setup(); err != nil {
		return result{}, err
	}
	p, sp, lay, err := tracedPhase(w, half)
	if err != nil {
		return result{}, err
	}
	if spansOut != "" {
		if err := sp.writeFile(spansOut); err != nil {
			return result{}, err
		}
	}
	m := layerMetrics(p, sp, lay)
	m.set("bench.trace_overhead", p.opsPerSec()/bp.opsPerSec(), "ratio",
		fmt.Sprintf("traced %.1f / untraced %.1f ops/s", p.opsPerSec(), bp.opsPerSec()))
	failed := p.failed + bp.failed
	attempted := p.tally.attempted + bp.tally.attempted
	return result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   m,
	}, nil
}

// tracedPhase runs one timed phase on w (already set up) with spans, the
// CPU profiler and the layer probes on.
func tracedPhase(w workload, dur time.Duration) (phase, *spans, layerData, error) {
	sp := newSpans()
	probe, err := startLayers()
	if err != nil {
		return phase{}, nil, layerData{}, err
	}
	var d layerData
	p, err := measure(w, dur, sp, nil, func() { d = probe.stop() })
	return p, sp, d, err
}

// timedSetup builds the workload setupRepeats times, probing the host with
// sm after each, and returns the median build time in seconds; the last
// build is kept.
func timedSetup(w workload, sm *speedometer) (float64, error) {
	ds := make([]float64, setupRepeats)
	for i := range ds {
		if i > 0 {
			w.close()
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return 0, err
		}
		ds[i] = time.Since(t0).Seconds()
		sm.probe()
	}
	return stats.MedianOrZero(ds), nil
}

// measure runs one timed phase, probing the host with sm between windows,
// and then, untimed, the workload's output checks. stop, if set, runs
// between the two. The traced run takes no probes: its spans and profile
// must account for the whole phase.
func measure(w workload, dur time.Duration, sp *spans, sm *speedometer, stop func()) (phase, error) {
	runtime.GC()
	t0 := time.Now()
	sp.markStart(t0)
	t, err := w.run(t0.Add(dur), sp, sm)
	wall := time.Since(t0)
	sp.markEnd(t0.Add(wall))
	if stop != nil {
		stop()
	}
	if err != nil {
		return phase{}, err
	}
	failed, err := w.check()
	if err != nil {
		return phase{}, err
	}
	return phase{wall: wall, tally: t, failed: failed + t.attempted - t.ok}, nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set, in MiB (Linux reports KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// printTable writes the human-readable metric table, one metric a line.
func printTable(w io.Writer, workload string, m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "perfbench %s\n", workload)
	for _, n := range names {
		v := m[n]
		fmt.Fprintf(w, "  %-36s %14.6g %-9s %s\n", n, v.Value, v.Unit, strings.TrimSpace(v.note))
	}
}
