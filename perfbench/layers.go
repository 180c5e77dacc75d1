package main

import (
	"bytes"
	"fmt"
	"math"
	rtmetrics "runtime/metrics"
	"runtime/pprof"

	"ppr/internal/obs"
	"ppr/internal/schemes"
	"ppr/internal/stats"
)

// layerProbe captures the traced half's per-layer evidence: a CPU profile,
// an obs snapshot and a runtime/metrics sample at each end of the timed
// phase. The untraced run never starts one.
type layerProbe struct {
	prof    bytes.Buffer
	obs0    obs.Snapshot
	rt0     []rtmetrics.Sample
	running bool
}

// layerData is what a probe measured.
type layerData struct {
	shares   map[string]float64
	cpuNanos int64
	counters map[string]int64 // obs counter deltas
	rt0, rt1 []rtmetrics.Sample
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/sched/latencies:seconds",
}

func readRuntime() []rtmetrics.Sample {
	s := make([]rtmetrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	return s
}

func startLayers() (*layerProbe, error) {
	p := &layerProbe{obs0: obs.Default().Snapshot(), rt0: readRuntime()}
	if err := pprof.StartCPUProfile(&p.prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p.running = true
	return p, nil
}

func (p *layerProbe) stop() layerData {
	rt1 := readRuntime()
	obs1 := obs.Default().Snapshot()
	if p.running {
		pprof.StopCPUProfile()
		p.running = false
	}
	d := layerData{counters: map[string]int64{}, rt0: p.rt0, rt1: rt1}
	for name, v := range obs1.Counters {
		d.counters[name] = v - p.obs0.Counters[name]
	}
	if prof, err := parseCPUProfile(p.prof.Bytes()); err == nil {
		d.shares, d.cpuNanos = prof.shares()
	} else {
		d.shares = map[string]float64{}
	}
	return d
}

// rtDelta is a scalar runtime metric's change over the timed phase.
func (d layerData) rtDelta(name string) float64 {
	for i, s := range d.rt1 {
		if s.Name != name {
			continue
		}
		if s.Value.Kind() == rtmetrics.KindUint64 {
			return float64(s.Value.Uint64() - d.rt0[i].Value.Uint64())
		}
	}
	return 0
}

// rtQuantile is a quantile of a runtime histogram's change over the timed
// phase, as its bucket's upper bound.
func (d layerData) rtQuantile(name string, q float64) float64 {
	for i, s := range d.rt1 {
		if s.Name != name || s.Value.Kind() != rtmetrics.KindFloat64Histogram {
			continue
		}
		h1, h0 := s.Value.Float64Histogram(), d.rt0[i].Value.Float64Histogram()
		var total uint64
		counts := make([]uint64, len(h1.Counts))
		for j := range counts {
			counts[j] = h1.Counts[j] - h0.Counts[j]
			total += counts[j]
		}
		if total == 0 {
			return 0
		}
		want := uint64(math.Ceil(q * float64(total)))
		var seen uint64
		for j, c := range counts {
			seen += c
			if seen >= want {
				ub := h1.Buckets[j+1]
				if math.IsInf(ub, 1) {
					ub = h1.Buckets[j]
				}
				return ub
			}
		}
	}
	return 0
}

// Which end-to-end metric each layer metric should move, and on which
// workload; printed beside the value.
const (
	movesFigures = "figures/ops_per_s"
	movesServe   = "serve/ops_per_s"
	movesRadio   = "figures,fig17/ops_per_s"
	movesRecv    = "figures,fig17/ops_per_s; serve/transfer_p50_ms"
	movesCore    = "fig17/ops_per_s; serve/transfer_p50_ms"
	movesNetsim  = "fig17/ops_per_s"
	movesWire    = "serve/ops_per_s, transfer_p50_ms"
	movesRuntime = "all/cpu_ms_per_op; serve/transfer_p99_ms"
	movesAlloc   = "all/cpu_ms_per_op, max_rss_mb"
)

// layerMetrics turns the traced half into the per-layer metrics. Every
// metric is reported on every workload; a layer the workload bypasses
// reads 0, which is the prediction for it.
func layerMetrics(p phase, sp *spans, d layerData) metrics {
	m := metrics{}
	ops := float64(max(p.tally.ok, 1))
	c := d.counters
	perOp := func(name string) float64 { return float64(c[name]) / ops }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// Spans around the benchmark's calls into each module.
	m.set("experiments.fill_s", stats.MedianOrZero(sp.durations("experiments.fill")), "s", movesFigures)
	for _, s := range schemes.All() {
		slug := schemes.Slug(s.Name())
		m.set("schemes."+slug+".post_s", stats.MedianOrZero(sp.durations("schemes."+slug+".post")), "s", movesFigures)
	}
	m.set("experiments.fig17_s", stats.MedianOrZero(sp.durations("experiments.fig17")), "s", movesNetsim)
	m.set("linkserv.open_ms_p50", 1e3*stats.MedianOrZero(sp.durations("linkserv.open")), "ms", movesServe)
	m.set("linkserv.close_ms_p50", 1e3*stats.MedianOrZero(sp.durations("linkserv.close")), "ms", movesServe)
	m.set("bench.span_coverage", ratio(sp.leafSeconds(), p.wall.Seconds()*float64(max(sp.busyLanes(), 1))), "ratio",
		"leaf spans / (timed wall x lanes)")

	// Self time by layer, from the CPU profile.
	share := func(name, bucket, moves string) { m.set(name, d.shares[bucket], "ratio", moves) }
	share("radio.cpu_share", "radio", movesRadio)
	share("frame.sync_cpu_share", bucketSync, movesRecv)
	share("frame.despread_cpu_share", bucketDespread, movesRecv)
	share("fec.cpu_share", "fec", movesFigures+"; fig17,serve: no change")
	share("schemes.cpu_share", "schemes", movesFigures+"; fig17,serve: no change")
	share("core.cpu_share", "core", movesCore)
	share("netsim.cpu_share", "netsim", movesNetsim)
	share("sim.cpu_share", "sim", movesFigures)
	share("wire.cpu_share", "wire", movesWire)
	share("linkserv.cpu_share", "linkserv", movesWire)
	share("runtime.gc_cpu_share", bucketGC, movesRuntime)
	share("runtime.sched_cpu_share", bucketSched, movesRuntime)
	share("other.cpu_share", bucketOther, "benchmark driver and unbucketed code")
	m.set("bench.profile_cpu_per_wall", float64(d.cpuNanos)/1e9/p.wall.Seconds(), "ratio",
		fmt.Sprintf("profiled CPU seconds per timed wall second, over %.2fs", p.wall.Seconds()))

	// Counts from the obs registry, per op.
	m.set("frame.syncs_found", perOp("frame.syncs_found"), "count/op", movesRecv)
	m.set("frame.receptions", perOp("frame.receptions"), "count/op", movesRecv)
	m.set("frame.crc_failures", perOp("frame.crc_failures"), "count/op", movesRecv)
	m.set("frame.receptions_per_sync", ratio(float64(c["frame.receptions"]), float64(c["frame.syncs_found"])), "ratio", movesRecv)
	m.set("fec.sova_invocations", perOp("fec.sova_invocations"), "count/op", movesFigures)
	m.set("fec.sova_bits", perOp("fec.sova_bits"), "count/op", movesFigures)
	m.set("sim.outcomes", perOp("sim.outcomes"), "count/op", movesFigures)
	m.set("sim.windows_simulated", perOp("sim.windows_simulated"), "count/op", movesFigures)
	m.set("pparq.rounds_per_transfer", ratio(float64(c["pparq.rounds"]), float64(c["pparq.transfers"])), "ratio", movesCore)
	m.set("pparq.retx_air_bytes", perOp("pparq.retx_air_bytes"), "B/op", movesCore)
	m.set("pparq.feedback_air_bytes", perOp("pparq.feedback_air_bytes"), "B/op", movesCore)
	m.set("pparq.softphy_misses", perOp("pparq.softphy_misses"), "count/op", movesCore)
	m.set("netsim.events", perOp("netsim.events"), "count/op", movesNetsim)
	m.set("netsim.collisions", perOp("netsim.collisions"), "count/op", movesNetsim)
	m.set("netsim.host_us_per_event", ratio(1e6*p.wall.Seconds(), float64(c["netsim.events"])), "us", movesNetsim)
	m.set("linkserv.wire_frames_per_transfer",
		ratio(float64(c["linkserv.wire_frames_in"]+c["linkserv.wire_frames_out"]), float64(c["linkserv.client.transfers"])), "ratio", movesWire)
	for _, n := range []string{"exch_timeouts", "stale_rx", "enqueue_timeouts", "inbox_drops"} {
		m.set("linkserv."+n, perOp("linkserv."+n), "count/op", movesServe)
	}

	// Go runtime over the timed phase.
	m.set("runtime.alloc_kb_per_op", d.rtDelta("/gc/heap/allocs:bytes")/1024/ops, "KiB/op", movesAlloc)
	m.set("runtime.allocs_per_op", d.rtDelta("/gc/heap/allocs:objects")/ops, "count/op", movesAlloc)
	m.set("runtime.gc_cycles", d.rtDelta("/gc/cycles/total:gc-cycles"), "count", movesAlloc)
	m.set("runtime.sched_wait_p99_us", 1e6*d.rtQuantile("/sched/latencies:seconds", 0.99), "us", movesRuntime)
	return m
}
