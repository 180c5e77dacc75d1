// Benchmarks regenerating every table and figure of the paper's evaluation
// (one Benchmark per artifact; see DESIGN.md's experiment index), plus
// ablation benches for the design choices the system makes and
// micro-benchmarks for the hot paths.
//
// The per-figure benches run the quick-scale experiments so the whole suite
// completes in minutes; cmd/pprsim runs the full-scale versions.
package ppr

import (
	"bytes"
	"context"
	"math"
	"net"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ppr/internal/bitutil"
	"ppr/internal/chipseq"
	"ppr/internal/core/chunkdp"
	"ppr/internal/core/pparq"
	"ppr/internal/core/runlen"
	"ppr/internal/core/softphy"
	"ppr/internal/experiments"
	"ppr/internal/fec"
	"ppr/internal/frame"
	"ppr/internal/frame/syncref"
	"ppr/internal/interleave"
	"ppr/internal/linkserv"
	"ppr/internal/modem"
	"ppr/internal/netsim"
	"ppr/internal/obs"
	"ppr/internal/phy"
	"ppr/internal/radio"
	"ppr/internal/radio/synthref"
	"ppr/internal/schemes"
	"ppr/internal/sim"
	"ppr/internal/stats"
	"ppr/internal/testbed"
)

// TestMain lets CI measure the metrics-enabled cost of the hot paths: with
// PPR_METRICS set, the whole bench run executes against a live registry, so
// `benchjson -check` can gate the enabled-vs-disabled overhead.
func TestMain(m *testing.M) {
	if os.Getenv("PPR_METRICS") != "" {
		obs.Enable()
	}
	os.Exit(m.Run())
}

func benchOpts(i int) experiments.Options {
	return experiments.Options{Seed: uint64(i%4 + 1), Quick: true}
}

// ---- One benchmark per table and figure ----

func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves := experiments.Fig3(benchOpts(i))
		if len(curves) != 6 {
			b.Fatal("wrong curve count")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2(benchOpts(i))
		if len(rows) != 5 {
			b.Fatal("wrong row count")
		}
	}
}

func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := experiments.Fig8(benchOpts(i))
		if len(fig.Curves) != 2*len(schemes.All()) {
			b.Fatal("wrong curve count")
		}
	}
}

func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig9(benchOpts(i))
	}
}

func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig10(benchOpts(i))
	}
}

func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig11(benchOpts(i))
	}
}

func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := experiments.Fig12(benchOpts(i))
		if len(series) != 6 {
			b.Fatal("wrong series count")
		}
	}
}

func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig13(benchOpts(i))
		if len(res.Packet1) == 0 {
			b.Fatal("empty timeline")
		}
	}
}

func BenchmarkFig14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig14(benchOpts(i))
	}
}

func BenchmarkFig15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig15(benchOpts(i))
	}
}

func BenchmarkFig16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig16(benchOpts(i))
		if res.Transfers == 0 {
			b.Fatal("no transfers")
		}
	}
}

// BenchmarkNetsimFig17Quick exercises the closed-loop network simulator
// end to end: every (sender pair, link layer) cell runs a full discrete-
// event simulation with PP-ARQ, frag-CRC and packet-CRC state machines
// contending for the shared channel.
func BenchmarkNetsimFig17Quick(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig17(benchOpts(i))
		if len(res.Curves) == 0 || res.Curves[0].Transfers == 0 {
			b.Fatal("no closed-loop transfers")
		}
	}
}

// BenchmarkMesh regenerates the city-scale mesh experiment: 1000 nodes in
// 100 mutually inaudible cells, 500 closed-loop flows per link layer, run
// by the spatially sharded engine.
func BenchmarkMesh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Mesh(benchOpts(i))
		if res.Domains != 100 || len(res.Layers) == 0 || res.Layers[0].Transfers == 0 {
			b.Fatal("mesh run degenerate")
		}
	}
}

// BenchmarkMeshScaling runs one sharded netsim configuration — a
// multi-domain cell grid with contending flows in every cell — under 1 and
// 8 workers. Results are bit-identical (TestShardWorkerInvariance); the
// ns/op ratio is the wall-clock speedup spatial sharding buys, visible on
// multicore hardware (the sub-benches coincide on a single-CPU machine).
// Sub-bench names avoid a trailing -<digits> so benchjson's GOMAXPROCS
// normalization keeps them distinct.
func BenchmarkMeshScaling(b *testing.B) {
	tp, err := experiments.MeshTopology(experiments.Options{Seed: 1, Quick: true})
	if err != nil {
		b.Fatal(err)
	}
	flows := experiments.MeshFlows(tp.NumNodes())
	for _, workers := range []int{1, 8} {
		b.Run(map[int]string{1: "w1", 8: "w8"}[workers], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := netsim.Run(netsim.Config{
					Topo:         tp,
					Flows:        flows,
					PacketBytes:  250,
					DurationSec:  0.02,
					CarrierSense: true,
					Seed:         uint64(i%4 + 1),
					Workers:      workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Domains != 100 {
					b.Fatalf("%d domains, want 100", res.Domains)
				}
			}
		})
	}
}

func BenchmarkSummary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Summary(benchOpts(i))
		if len(rows) == 0 {
			b.Fatal("no summary rows")
		}
	}
}

// BenchmarkRunnerAllQuick regenerates the full 16-experiment suite through
// the registry-backed Runner with a fresh trace cache per iteration —
// exactly what `pprsim -exp all -quick` does — serially vs concurrently.
// TestRunnerMatchesSerial proves both produce identical datasets, so the
// ratio is the wall-clock speedup the concurrent Runner buys on multicore
// hardware (distinct operating points simulate in parallel, and the
// single-threaded experiments overlap the fan-out ones).
func BenchmarkRunnerAllQuick(b *testing.B) {
	var names []string
	for _, e := range experiments.All() {
		names = append(names, e.Name())
	}
	for _, bc := range []struct {
		name string
		jobs int
	}{
		{"serial", 1},
		{"concurrent", runtime.NumCPU()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := experiments.Runner{
					Options: experiments.Options{Seed: 1, Quick: true, Cache: experiments.NewTraceCache()},
					Workers: bc.jobs,
				}
				ds, err := r.Run(context.Background(), names)
				if err != nil || len(ds) != len(names) {
					b.Fatalf("runner: %v (%d datasets)", err, len(ds))
				}
			}
		})
	}
}

// ---- Engine benchmarks: the parallel window pool and the trace cache ----

// engineCfg is one moderately loaded operating point, scheduled once so the
// benches time delivery only.
func engineCfg(workers int) sim.Config {
	return sim.Config{
		Testbed:      testbed.New(radio.DefaultParams(), 1),
		OfferedBps:   experiments.LoadHigh,
		PacketBytes:  250,
		DurationSec:  2,
		CarrierSense: false,
		Seed:         1,
		Workers:      workers,
	}
}

// BenchmarkEngineDeliver measures the delivery engine on one worker vs
// all cores over the identical schedule; the determinism test
// (sim.TestDeliverWorkerCountInvariant) proves both produce the same trace,
// so the ratio of these two numbers is pure engine speedup.
func BenchmarkEngineDeliver(b *testing.B) {
	txs := sim.Schedule(engineCfg(1))
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"sequential", 1},
		{"parallel", runtime.NumCPU()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := engineCfg(bc.workers)
			for i := 0; i < b.N; i++ {
				outs := sim.Deliver(cfg, txs)
				if len(outs) == 0 {
					b.Fatal("no outcomes")
				}
			}
		})
	}
}

// BenchmarkTraceCache measures figure regeneration cold (every iteration
// re-simulates) vs warm (iterations post-process the shared trace), the
// speedup the paper's trace-driven methodology buys.
func BenchmarkTraceCache(b *testing.B) {
	o := experiments.Options{Seed: 1, Quick: true}
	b.Run("cold", func(b *testing.B) {
		c := experiments.NewTraceCache()
		for i := 0; i < b.N; i++ {
			c.Reset()
			tr := c.Get(o, experiments.LoadHigh, false)
			if len(tr.Outs) == 0 {
				b.Fatal("empty trace")
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		c := experiments.NewTraceCache()
		c.Get(o, experiments.LoadHigh, false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr := c.Get(o, experiments.LoadHigh, false)
			if len(tr.Outs) == 0 {
				b.Fatal("empty trace")
			}
		}
	})
}

// BenchmarkSchemePostProcess times one registered scheme's post-processing
// pass over a shared high-load trace, error patterns precomputed (they stay
// cached on the Trace) — the marginal cost of one figure curve, per scheme
// (the FEC family's trellis work shows up here: one metric-only fec.Repairs
// pass per damaged block, see BenchmarkBlockRepaired; clean blocks answer
// before the trellis, so it is proportional to damage). Each iteration
// takes a fresh Post, whose score memo is empty, so it times scoring, not
// a memo lookup.
func BenchmarkSchemePostProcess(b *testing.B) {
	o := experiments.Options{Seed: 1, Quick: true}
	tr := o.Trace(experiments.LoadHigh, false)
	tr.Post(0)
	p := experiments.DefaultSchemeParams()
	for _, s := range schemes.All() {
		b.Run(schemes.Slug(s.Name()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				acc := tr.Post(0).PerLinkDelivery(sim.VariantPostamble, s, p)
				if len(acc) == 0 {
					b.Fatal("no links")
				}
			}
		})
	}
}

// BenchmarkPostProcessWorkers measures figure post-processing sequential vs
// parallel over the same trace, a fresh Post (empty score memo) per
// iteration; TestPerLinkDeliveryWorkerInvariant proves both produce
// identical accumulators, so the ratio is pure speedup.
func BenchmarkPostProcessWorkers(b *testing.B) {
	o := experiments.Options{Seed: 1, Quick: true}
	tr := o.Trace(experiments.LoadHigh, false)
	p := experiments.DefaultSchemeParams()
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"sequential", 1},
		{"parallel", runtime.NumCPU()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pp := tr.Post(bc.workers)
				for _, s := range schemes.All() {
					if acc := pp.PerLinkDelivery(sim.VariantPostamble, s, p); len(acc) == 0 {
						b.Fatal("no links")
					}
				}
			}
		})
	}
}

// BenchmarkEngineScenarios times a full simulation under each traffic
// scenario, so workload cost is tracked alongside the paper's Poisson runs.
func BenchmarkEngineScenarios(b *testing.B) {
	for _, name := range []string{"poisson", "bursty", "periodic-jammer", "reactive-jammer"} {
		b.Run(name, func(b *testing.B) {
			o := experiments.Options{Seed: 1, Quick: true, Scenario: name}
			for i := 0; i < b.N; i++ {
				tr := experiments.NewTraceCache().Get(o, experiments.LoadModerate, true)
				if len(tr.Txs) == 0 {
					b.Fatal("no transmissions")
				}
			}
		})
	}
}

// ---- Ablations: the design choices DESIGN.md calls out ----

// randomRuns builds a labelled packet with bursty bad regions, the input
// shape the chunking strategies compete on.
func randomRuns(rng *stats.RNG, n int) runlen.Runs {
	labels := make([]softphy.Label, n)
	i := 0
	for i < n {
		if rng.Bool(0.15) {
			burst := 1 + rng.Intn(40)
			for j := 0; j < burst && i < n; j++ {
				labels[i] = softphy.Bad
				i++
			}
		} else {
			i += 1 + rng.Intn(30)
		}
	}
	return runlen.FromLabels(labels)
}

// BenchmarkAblationFeedback compares the Eq. 4/5 dynamic program against
// the naive per-run and single-span feedback strategies: both the compute
// cost (ns/op) and the achieved overhead (reported as bits/op metrics).
func BenchmarkAblationFeedback(b *testing.B) {
	rng := stats.NewRNG(1)
	const n = 3000 // 1500-byte packet in symbols
	inputs := make([]runlen.Runs, 64)
	for i := range inputs {
		inputs[i] = randomRuns(rng, n)
	}
	p := chunkdp.DefaultParams(n)
	for _, strat := range []struct {
		name string
		run  func(runlen.Runs, chunkdp.Params) chunkdp.Plan
	}{
		{"optimal-dp", chunkdp.Optimal},
		{"greedy", chunkdp.Greedy},
		{"naive-per-run", chunkdp.NaivePerRun},
		{"single-span", chunkdp.SingleSpan},
	} {
		b.Run(strat.name, func(b *testing.B) {
			var totalCost float64
			for i := 0; i < b.N; i++ {
				plan := strat.run(inputs[i%len(inputs)], p)
				totalCost += plan.CostBits
			}
			b.ReportMetric(totalCost/float64(b.N), "overhead-bits/op")
		})
	}
}

// BenchmarkAblationThreshold compares fixed-η labelling against the
// adaptive threshold (including its learning updates).
func BenchmarkAblationThreshold(b *testing.B) {
	rng := stats.NewRNG(2)
	ds := make([]phy.Decision, 3000)
	truth := make([]bool, len(ds))
	for i := range ds {
		if rng.Bool(0.2) {
			ds[i] = phy.Decision{Symbol: 1, Hint: uint8(6 + rng.Intn(20))}
		} else {
			ds[i] = phy.Decision{Symbol: 1, Hint: uint8(rng.Intn(3))}
			truth[i] = true
		}
	}
	b.Run("fixed-eta", func(b *testing.B) {
		th := softphy.Threshold{Eta: softphy.DefaultEta}
		for i := 0; i < b.N; i++ {
			labels := th.LabelAll(0, ds)
			if len(labels) != len(ds) {
				b.Fatal("bad labels")
			}
		}
	})
	b.Run("adaptive", func(b *testing.B) {
		ad := softphy.NewAdaptive(10, 1, softphy.DefaultEta)
		for i := 0; i < b.N; i++ {
			labels := ad.LabelAll(0, ds)
			// Feed back a slice of verified outcomes, as PP-ARQ would.
			for k := 0; k < 64; k++ {
				idx := (i*64 + k) % len(ds)
				ad.Observe(float64(ds[idx].Hint), truth[idx])
			}
			if len(labels) != len(ds) {
				b.Fatal("bad labels")
			}
		}
	})
}

// BenchmarkAblationDecoder compares the SoftPHY hint sources on the
// despreading hot path.
func BenchmarkAblationDecoder(b *testing.B) {
	rng := stats.NewRNG(3)
	words := make([]uint32, 256)
	for i := range words {
		cw := chipseq.Codeword(byte(rng.Intn(16)))
		for j := 0; j < 32; j++ {
			if rng.Bool(0.05) {
				cw ^= 1 << uint(31-j)
			}
		}
		words[i] = cw
	}
	for _, dec := range []phy.Decoder{phy.HardDecoder{}, phy.MatchedFilterDecoder{}} {
		b.Run(dec.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d := dec.Decode(words[i%len(words)])
				if d.Symbol > 15 {
					b.Fatal("bad symbol")
				}
			}
		})
	}
}

// BenchmarkAblationPostamble isolates the postamble decoding feature: the
// same preamble-destroyed chip stream through a status-quo receiver and a
// PPR receiver, reporting the recovery rate each achieves.
func BenchmarkAblationPostamble(b *testing.B) {
	payload := make([]byte, 200)
	streams := make([]*frame.ChipBuffer, 16)
	for i := range streams {
		rng2 := stats.NewRNG(uint64(i))
		f := frame.New(1, 2, uint16(i), payload)
		chips := f.AirChips()
		ruined := (frame.SyncBytes + frame.HeaderBytes) * frame.ChipsPerByte
		chips.FillUniform(0, ruined, rng2.Uint64)
		streams[i] = chips
	}
	for _, enabled := range []bool{false, true} {
		name := "without-postamble"
		if enabled {
			name = "with-postamble"
		}
		b.Run(name, func(b *testing.B) {
			rx := frame.NewReceiver(phy.HardDecoder{})
			rx.UsePostamble = enabled
			recovered := 0
			for i := 0; i < b.N; i++ {
				for _, rec := range rx.Receive(streams[i%len(streams)]) {
					if rec.HeaderOK {
						recovered++
					}
				}
			}
			b.ReportMetric(float64(recovered)/float64(b.N), "recovered/op")
		})
	}
}

// BenchmarkAblationDiversity measures the multi-receiver combining
// extension: delivery with the best single receiver vs min-hint combining
// across all four sinks.
func BenchmarkAblationDiversity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Diversity(benchOpts(i))
		if res.Packets == 0 {
			b.Fatal("no packets")
		}
		b.ReportMetric(res.SingleRate, "single-rate")
		b.ReportMetric(res.CombinedRate, "combined-rate")
	}
}

// ---- Micro-benchmarks for the hot paths ----

func BenchmarkChunkDP(b *testing.B) {
	rng := stats.NewRNG(5)
	rs := randomRuns(rng, 3000)
	p := chunkdp.DefaultParams(3000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan := chunkdp.Optimal(rs, p)
		if len(plan.Chunks) == 0 && len(rs.Bad()) > 0 {
			b.Fatal("no chunks")
		}
	}
}

// BenchmarkSyncScan scans one 1500 B frame whose payload is all zeros. That
// payload reproduces the sync pad at every codeword boundary, so every
// aligned offset passes the strided probes and pays the full check chain:
// it is the scan's worst case, not a representative stream.
// BenchmarkFindSyncs is the representative row.
func BenchmarkSyncScan(b *testing.B) {
	f := frame.New(1, 2, 3, make([]byte, 1500))
	buf := f.AirChips()
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		syncs := frame.FindSyncs(buf, frame.DefaultSyncMaxDist)
		if len(syncs) != 2 {
			b.Fatal("wrong sync count")
		}
	}
}

// benchSyncStream builds a realistic scan workload: mostly noise (the case
// the prefilter is tuned for) with four embedded 200-byte frames.
func benchSyncStream() *frame.ChipBuffer {
	rng := stats.NewRNG(99)
	chips := make([]byte, 0, 300000)
	noise := make([]byte, 30000)
	for f := 0; f < 4; f++ {
		for i := range noise {
			noise[i] = byte(rng.Intn(2))
		}
		chips = append(chips, noise...)
		chips = append(chips, frame.New(1, 2, uint16(f), make([]byte, 200)).AirChips().Bytes()...)
	}
	return frame.NewChipBuffer(chips)
}

// BenchmarkFindSyncs measures the strided sync scan against the
// frozen seed implementation (internal/frame/syncref) on the same stream:
// mostly noise with four embedded frames, the representative scan row.
// TestFindSyncsMatchesSyncref proves both produce identical detections, and
// TestFindSyncsSpeedGate enforces a ≥3x ratio, so the new/ref pair here is
// pure, semantics-preserving speedup.
func BenchmarkFindSyncs(b *testing.B) {
	buf := benchSyncStream()
	want := len(frame.FindSyncs(buf, frame.DefaultSyncMaxDist))
	if want < 8 { // 4 frames x (preamble + postamble), plus edge locks
		b.Fatalf("stream yields only %d syncs", want)
	}
	b.Run("new", func(b *testing.B) {
		b.SetBytes(int64(buf.Len()))
		var syncs []frame.Sync
		for i := 0; i < b.N; i++ {
			syncs = frame.AppendSyncs(syncs[:0], buf, frame.DefaultSyncMaxDist)
			if len(syncs) != want {
				b.Fatalf("got %d syncs, want %d", len(syncs), want)
			}
		}
	})
	b.Run("ref", func(b *testing.B) {
		b.SetBytes(int64(buf.Len()))
		for i := 0; i < b.N; i++ {
			if syncs := syncref.FindSyncs(buf, frame.DefaultSyncMaxDist); len(syncs) != want {
				b.Fatalf("got %d syncs, want %d", len(syncs), want)
			}
		}
	})
	// dsss scans back-to-back frames with random payloads and no noise
	// between them: the stream a radio head and a netsim receiver scan.
	// Every run of two equal symbols 0–7 in it reproduces the sync pad's
	// period, so strided probes hit far more often than on noise.
	dsss := benchDSSSStream()
	wantDSSS := len(frame.FindSyncs(dsss, frame.DefaultSyncMaxDist))
	if wantDSSS < 16 { // 8 frames x (preamble + postamble)
		b.Fatalf("DSSS stream yields only %d syncs", wantDSSS)
	}
	b.Run("dsss", func(b *testing.B) {
		b.SetBytes(int64(dsss.Len()))
		var syncs []frame.Sync
		for i := 0; i < b.N; i++ {
			syncs = frame.AppendSyncs(syncs[:0], dsss, frame.DefaultSyncMaxDist)
			if len(syncs) != wantDSSS {
				b.Fatalf("got %d syncs, want %d", len(syncs), wantDSSS)
			}
		}
	})
}

// benchDSSSStream spreads eight back-to-back frames with random payloads
// of 64–1500 bytes.
func benchDSSSStream() *frame.ChipBuffer {
	rng := stats.NewRNG(17)
	var air []byte
	for f := 0; f < 8; f++ {
		payload := make([]byte, 64+rng.Intn(frame.MaxPayload-63))
		for i := range payload {
			payload[i] = byte(rng.Intn(256))
		}
		air = frame.New(1, 2, uint16(f), payload).AppendAirBytes(air)
	}
	return phy.SpreadPacked(air)
}

// BenchmarkBlockRepaired measures the FEC schemes' per-block question,
// "does Viterbi repair this error pattern?", on heavy 25-byte blocks (3%
// scattered errors plus a 12-bit burst — the flagged blocks the schemes
// actually decode): "decode" runs the full soft-output fec.Decode and
// tests its bits for zero, "repairs" the metric-only fec.Repairs that
// schemes use, on the blocks packed once outside the timed loop.
// TestRepairsMatchesDecodeRandom proves the same answers.
func BenchmarkBlockRepaired(b *testing.B) {
	rng := stats.NewRNG(25)
	n := fec.EncodedLen(schemes.DefaultFECDataBytes * 8)
	blocks := make([][]byte, 64)
	packed := make([]*bitutil.ChipWords, len(blocks))
	for i := range blocks {
		blk := make([]byte, n)
		for j := range blk {
			if rng.Bool(0.03) {
				blk[j] = 1
			}
		}
		start := rng.Intn(n - 12)
		for j := start; j < start+12; j++ {
			blk[j] = byte(rng.Intn(2))
		}
		blocks[i] = blk
		packed[i] = bitutil.PackChipBytes(blk)
	}
	var repaired int
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := fec.Decode(blocks[i%len(blocks)])
			if err != nil {
				b.Fatal(err)
			}
			if bytes.IndexByte(res.Bits, 1) < 0 {
				repaired++
			}
		}
	})
	b.Run("repairs", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if fec.Repairs(packed[i%len(packed)], 0, n) {
				repaired++
			}
		}
	})
}

// BenchmarkDeinterleave measures the FEC+interleaving scheme's
// deinterleaver on paper-scale damaged patterns: the coded region of a
// 1500-byte payload (29 blocks of 412 chips) through the default 32×48
// interleaver, each pattern 1% scattered errors plus a collision-like
// burst of 1000–4000 chips at half density, packed once outside the timed
// loop, into one reused buffer as the scheme does.
// TestDeinterleaveMatchesReference (internal/interleave) proves the output
// against a byte-per-bit permutation.
func BenchmarkDeinterleave(b *testing.B) {
	rng := stats.NewRNG(26)
	codedBits := fec.EncodedLen(schemes.DefaultFECDataBytes * 8)
	n := 1500 * 8 / codedBits * codedBits
	ilv := interleave.New(schemes.DefaultInterleaveRows, schemes.DefaultInterleaveCols)
	pats := make([]*bitutil.ChipWords, 16)
	for i := range pats {
		pat := bitutil.NewChipWords(n)
		for j := 0; j < n; j++ {
			if rng.Bool(0.01) {
				pat.SetBit(j, 1)
			}
		}
		l := 1000 + rng.Intn(3000)
		start := rng.Intn(n - l)
		for j := start; j < start+l; j++ {
			if rng.Bool(0.5) {
				pat.SetBit(j, 1)
			}
		}
		pats[i] = pat
	}
	var out bitutil.ChipWords
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ilv.DeinterleaveInto(&out, pats[i%len(pats)]); out.Len() != n {
			b.Fatalf("deinterleaved %d chips, want %d", out.Len(), n)
		}
	}
}

// BenchmarkReceiveSteadyState measures the full receive pipeline (sync scan
// + header/payload decode + CRC) in its zero-alloc steady state: one warm
// Receiver over a noise+frames stream. TestReceiveSteadyStateAllocs pins
// allocs/op at exactly 0.
func BenchmarkReceiveSteadyState(b *testing.B) {
	buf := benchSyncStream()
	rx := frame.NewReceiver(phy.HardDecoder{})
	want := len(rx.Receive(buf)) // grow the arenas once
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := rx.Receive(buf); len(got) != want {
			b.Fatal("reception count changed")
		}
	}
}

// BenchmarkDespread1500B despreads a 1500 B all-zero payload. Every word is
// a clean codeword, the best case for chipseq.NearestHard's guess shortcut;
// chipseq's BenchmarkNearestHard has the sparse-error and random rows.
func BenchmarkDespread1500B(b *testing.B) {
	chips := phy.SpreadPacked(make([]byte, 1500))
	b.SetBytes(1500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds := phy.DecodeStream(phy.HardDecoder{}, chips)
		if len(ds) != 3000 {
			b.Fatal("wrong symbol count")
		}
	}
}

func BenchmarkFrameRoundTrip(b *testing.B) {
	rng := stats.NewRNG(7)
	payload := make([]byte, 500)
	for i := range payload {
		payload[i] = byte(rng.Intn(256))
	}
	rx := frame.NewReceiver(phy.HardDecoder{})
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := frame.New(1, 2, uint16(i), payload)
		ok := false
		for _, rec := range rx.Receive(f.AirChips()) {
			if rec.CRCOK {
				ok = true
			}
		}
		if !ok {
			b.Fatal("round trip failed")
		}
	}
}

// benchTxChips builds one 1500-byte frame's packed on-air stream, the
// dominant-signal payload for the synthesis benches.
func benchTxChips() *bitutil.ChipWords {
	return frame.New(1, 2, 3, make([]byte, 1500)).AirChips()
}

// BenchmarkSynthesize measures the channel synthesizer on its three
// segment regimes over one max-frame window (~96k chips): pure noise
// (word fill), a clean dominant at 25 dB SNR (word copy + near-zero
// flips), and a two-transmission collision at ~0 dB SINR (word copy +
// dense sparse-sampled flips). fading-multi is a paper-scale window of ten
// staggered, overlapping 1500 B transmissions with block Rician fading,
// about 240 fading blocks: the case whose segment scan was quadratic in
// the block count. Each row reuses one radio.Scratch, as a delivery
// worker does. bytes-reference runs the frozen seed implementation
// (internal/radio/synthref, the same copy the statistical-equivalence
// tests pin against) on the clean-dominant input for the speedup ratio.
func BenchmarkSynthesize(b *testing.B) {
	tx := benchTxChips()
	n := tx.Len() + 128
	noise := radio.DBmToMW(-95)
	clean := []radio.Overlap{{Start: 64, Chips: tx, PowerMW: radio.DBmToMW(-70)}}
	collision := []radio.Overlap{
		{Start: 64, Chips: tx, PowerMW: radio.DBmToMW(-80)},
		{Start: n / 3, Chips: tx, PowerMW: radio.DBmToMW(-80.5)},
	}
	var multi []radio.Overlap
	for k := 0; k < 10; k++ {
		multi = append(multi, radio.Overlap{
			Start:   64 + k*tx.Len()/4 + 37*k,
			Chips:   tx,
			PowerMW: radio.DBmToMW(-75 - 1.5*float64(k)),
		})
	}
	multiN := multi[len(multi)-1].End() + 64
	cases := []struct {
		name      string
		n         int
		overlaps  []radio.Overlap
		coherence int
	}{
		{"noise-only", n, nil, 0},
		{"clean-dominant", n, clean, 0},
		{"collision", n, collision, 0},
		{"fading-multi", multiN, multi, radio.DefaultCoherenceChips},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			rng := stats.NewRNG(1)
			var s radio.Scratch
			b.SetBytes(int64(bc.n))
			for i := 0; i < b.N; i++ {
				out := s.SynthesizeFading(rng, bc.n, bc.overlaps, noise, bc.coherence)
				if out.Len() != bc.n {
					b.Fatal("wrong window length")
				}
			}
		})
	}
	b.Run("bytes-reference", func(b *testing.B) {
		rng := stats.NewRNG(1)
		b.SetBytes(int64(n))
		for i := 0; i < b.N; i++ {
			out := synthref.Synthesize(rng, n, clean, noise)
			if len(out) != n {
				b.Fatal("wrong window length")
			}
		}
	})
}

// BenchmarkChipPack measures the packed-stream primitives the pipeline is
// built on: byte→word packing (the modem-boundary adapter), word→byte
// unpacking, byte spreading into packed words (the transmit path,
// phy.SpreadPacked, as Frame.AirChips runs it), unaligned word copy
// (dominant-segment synthesis) and the sliding Word32 extraction (sync
// scan and despreading).
func BenchmarkChipPack(b *testing.B) {
	tx := benchTxChips()
	n := tx.Len()
	chipBytes := tx.Bytes()
	payload := make([]byte, 1500)
	b.Run("pack-bytes", func(b *testing.B) {
		b.SetBytes(int64(n))
		for i := 0; i < b.N; i++ {
			if w := bitutil.PackChipBytes(chipBytes); w.Len() != n {
				b.Fatal("bad pack")
			}
		}
	})
	b.Run("unpack-bytes", func(b *testing.B) {
		b.SetBytes(int64(n))
		for i := 0; i < b.N; i++ {
			if out := tx.Bytes(); len(out) != n {
				b.Fatal("bad unpack")
			}
		}
	})
	b.Run("pack-codewords", func(b *testing.B) {
		b.SetBytes(int64(n))
		for i := 0; i < b.N; i++ {
			if w := phy.SpreadPacked(payload); w.Len() != len(payload)*64 {
				b.Fatal("bad codeword pack")
			}
		}
	})
	b.Run("copy-unaligned", func(b *testing.B) {
		dst := bitutil.NewChipWords(n + 64)
		b.SetBytes(int64(n))
		for i := 0; i < b.N; i++ {
			dst.CopyFrom(13, tx, 0, n)
		}
	})
	b.Run("word32-scan", func(b *testing.B) {
		b.SetBytes(int64(n))
		var acc uint32
		for i := 0; i < b.N; i++ {
			for off := 0; off+32 <= n; off += 32 {
				acc ^= tx.Word32(off)
			}
		}
		if acc == 1 && math.Signbit(-1) {
			b.Log(acc) // keep acc live
		}
	})
}

func BenchmarkMSKModemRoundTrip(b *testing.B) {
	rng := stats.NewRNG(6)
	chips := make([]byte, 4096)
	for i := range chips {
		chips[i] = byte(rng.Intn(2))
	}
	m, d := modem.NewModulator(), modem.NewDemodulator()
	b.SetBytes(int64(len(chips)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := m.Modulate(chips)
		got, _ := d.Demodulate(s, 0)
		if len(got) == 0 {
			b.Fatal("no chips")
		}
	}
}

// cleanBenchLink is a loss-free link for protocol-overhead benchmarking.
type cleanBenchLink struct{ rx *frame.Receiver }

func (l *cleanBenchLink) Transmit(f frame.Frame) *frame.Reception {
	recs := l.rx.Receive(f.AirChips())
	for i := range recs {
		if recs[i].HeaderOK {
			return &recs[i]
		}
	}
	return nil
}

func BenchmarkPPARQTransferClean(b *testing.B) {
	fwd := &cleanBenchLink{rx: frame.NewReceiver(phy.HardDecoder{})}
	rev := &cleanBenchLink{rx: frame.NewReceiver(phy.HardDecoder{})}
	s := pparq.NewSender(fwd, rev, 1, 2, pparq.Config{})
	payload := make([]byte, 250)
	b.SetBytes(250)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Transfer(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLinkFlows measures the link server's full-stack flow rate: each
// flow is opened over an in-process loopback connection (wire codec, session
// layer, and the PP-ARQ exchange all included), carries one verified
// 256-byte transfer, and closes. Parallelism matches a server pushed by many
// concurrent clients; the custom metric is the number every capacity
// question asks for.
func BenchmarkLinkFlows(b *testing.B) {
	srv := linkserv.NewServer(linkserv.Config{
		MaxFlows: 1 << 20,
		QueueLen: 1024,
	})
	const conns = 8
	clients := make([]*linkserv.Client, conns)
	for i := range clients {
		sc, cc := net.Pipe()
		srv.AddConn(sc)
		clients[i] = linkserv.NewClient(cc, linkserv.ClientConfig{QueueLen: 1024})
	}
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i)
	}
	var next atomic.Int64
	b.SetBytes(256)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		cl := clients[int(next.Add(1))%conns]
		for pb.Next() {
			f, err := cl.Open()
			if err != nil {
				b.Fatal(err)
			}
			got, _, err := f.Transfer(payload)
			if err != nil {
				b.Fatal(err)
			}
			if !bytes.Equal(got, payload) {
				b.Fatal("delivered payload differs")
			}
			if err := f.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "flows/sec")
	for _, cl := range clients {
		cl.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		b.Fatal(err)
	}
}
