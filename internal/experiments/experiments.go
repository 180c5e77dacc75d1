// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. 7) on the simulated testbed. The package is organised
// around three pieces:
//
//   - The Experiment registry (Register / ByName / Names / All): every
//     figure and table is a named Experiment whose Run(ctx, Options)
//     produces a Dataset — the one typed result model all entry points
//     share (labelled series of points with units, percentile bands and
//     metadata). New experiments plug in by name, exactly like recovery
//     schemes and traffic scenarios.
//   - The Runner, which executes a set of experiments concurrently on a
//     bounded worker pool, sharing one TraceCache so figures that
//     post-process the same operating point never re-simulate it, with
//     context cancellation threaded down through simulation windows and
//     closed-loop cells, streaming per-experiment progress callbacks.
//   - The typed entry points (Fig3 … Fig17, Table2, Summary, Diversity),
//     kept as thin wrappers over the same code paths for callers that want
//     the figure-specific structs.
//
// Methodology note: like the paper ("each node sends a stream of bits,
// which are formed into traces and post-processed to emulate a packet size
// of 1500 bytes"), the capacity experiments run the simulator once per
// (load, carrier-sense) point to produce symbol-level traces with SoftPHY
// hints and ground truth, then post-process the same traces under every
// scheme — packet CRC, fragmented CRC, and PPR.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"ppr/internal/obs"
	"ppr/internal/radio"
	"ppr/internal/scenario"
	"ppr/internal/schemes"
	"ppr/internal/sim"
	"ppr/internal/testbed"
)

// The paper's three offered-load operating points, bits/second/node.
const (
	LoadModerate = 3500
	LoadMedium   = 6900
	LoadHigh     = 13800
)

// Loads lists them in presentation order.
var Loads = []float64{LoadModerate, LoadMedium, LoadHigh}

// LoadName renders a load the way the paper labels it.
func LoadName(bps float64) string { return fmt.Sprintf("%.1f Kbits/s/node", bps/1000) }

// Options configures an experiment run.
type Options struct {
	// Seed fixes the testbed placement and all channel/traffic randomness.
	Seed uint64
	// Quick shrinks packet sizes and durations so the full suite runs in
	// seconds (used by tests and -quick benches); the shapes survive, the
	// statistics are just noisier.
	Quick bool
	// Workers bounds the simulation engine's parallelism; 0 means all
	// cores. Results do not depend on it.
	Workers int
	// Scenario names the traffic scenario to run (see internal/scenario);
	// "" means the paper's all-Poisson workload.
	Scenario string
	// Schemes names the recovery schemes the delivery figures post-process
	// (see schemes.Names()); empty means every registered scheme.
	Schemes []string
	// Jammers names the jam strategies the resilience experiment sweeps
	// (see jam.Names()); empty means the default adversary panel.
	Jammers []string
	// Cache is the trace cache the experiments draw from; nil means the
	// process-wide SharedTraces. A Runner regenerating a suite hands every
	// experiment the same cache, so concurrent figures sharing an operating
	// point collapse to one simulation.
	Cache *TraceCache
	// Tracer, when non-nil, records a discrete-event timeline of the network
	// simulations the experiment runs (one trace process per netsim run, one
	// lane per interference domain; see internal/obs). Purely observational:
	// results are bit-identical with or without it. Not part of the trace
	// cache key.
	Tracer *obs.Tracer
}

// cache resolves the configured trace cache.
func (o Options) cache() *TraceCache {
	if o.Cache != nil {
		return o.Cache
	}
	return SharedTraces
}

// schemeList resolves the configured scheme selection. It panics on an
// unknown name; CLI entry points validate against schemes.Names() first.
func (o Options) schemeList() []schemes.RecoveryScheme {
	if len(o.Schemes) == 0 {
		return schemes.All()
	}
	out := make([]schemes.RecoveryScheme, 0, len(o.Schemes))
	for _, name := range o.Schemes {
		s, err := schemes.ByName(name)
		if err != nil {
			panic(err)
		}
		out = append(out, s)
	}
	return out
}

// PacketBytes returns the emulated packet size: the paper's 1500 bytes, or
// a reduced size in quick mode.
func (o Options) PacketBytes() int {
	if o.Quick {
		return 250
	}
	return 1500
}

// DurationSec returns the simulated airtime per operating point.
func (o Options) DurationSec() float64 {
	if o.Quick {
		return 4
	}
	return 25
}

// Bed builds the options' deployment.
func (o Options) Bed() *testbed.Testbed {
	return testbed.New(radio.DefaultParams(), o.Seed)
}

// simConfig assembles the sim configuration for one operating point. It
// panics on an unknown scenario name; CLI entry points validate the name
// against scenario.Names() first.
func (o Options) simConfig(tb *testbed.Testbed, offeredBps float64, carrierSense bool) sim.Config {
	sc, err := scenario.ByName(o.Scenario)
	if err != nil {
		panic(err)
	}
	return sim.Config{
		Testbed:      tb,
		OfferedBps:   offeredBps,
		PacketBytes:  o.PacketBytes(),
		DurationSec:  o.DurationSec(),
		CarrierSense: carrierSense,
		Seed:         o.Seed ^ uint64(offeredBps) ^ boolBit(carrierSense)<<40,
		Scenario:     sc,
		Workers:      o.Workers,
	}
}

// must panics on an impossible error: the typed entry points run their
// ctx-aware bodies under context.Background(), which never cancels — the
// only error source in those paths.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// SchemeParams fixes the per-scheme knobs (see schemes.Params).
type SchemeParams = schemes.Params

// DefaultSchemeParams returns the paper's operating point.
func DefaultSchemeParams() SchemeParams { return schemes.DefaultParams() }

// LinkKey identifies a (sender, receiver) pair.
type LinkKey struct {
	// Src is the sender index; Rcv the receiver index.
	Src, Rcv int
}

// LinkAccum aggregates per-link delivery across a trace.
type LinkAccum struct {
	// DeliveredBytes is the total application bytes the scheme delivered.
	DeliveredBytes int
	// SentBytes is the total application bytes offered on the link.
	SentBytes int
	// Packets counts transmissions scored on the link.
	Packets int
}

// Rate returns the link's equivalent delivery rate in [0, 1].
func (a LinkAccum) Rate() float64 {
	if a.SentBytes == 0 {
		return 0
	}
	return float64(a.DeliveredBytes) / float64(a.SentBytes)
}

// PerLinkDelivery post-processes a trace under one scheme for one variant
// index, returning per-link accumulators. Only links audible in the
// deployment appear (the trace only contains audible outcomes). It is the
// one-off convenience wrapper over NewPost; figure code goes through
// Trace.Post so correctness masks are computed once and shared across every
// scheme and variant.
func PerLinkDelivery(outs []sim.Outcome, variant int, s schemes.RecoveryScheme, p SchemeParams, payloadBytes int) map[LinkKey]LinkAccum {
	return NewPost(outs, payloadBytes, 0).PerLinkDelivery(variant, s, p)
}

// fanOut splits [0, n) into contiguous shards over at most workers
// goroutines (0 means all cores) and waits for fn on each; shard indexes
// are dense in [0, nShards). It is the same bounded fan-out Deliver uses
// for (receiver, window) units, applied to post-processing.
func fanOut(n, workers int, fn func(shard, lo, hi int)) (nShards int) {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			fn(0, 0, n)
			return 1
		}
		return 0
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		lo, hi := i*n/workers, (i+1)*n/workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(shard, lo, hi int) {
			defer wg.Done()
			fn(shard, lo, hi)
		}(i, lo, hi)
	}
	wg.Wait()
	return workers
}

// Masks computes every acquired outcome's CorrectMask over a bounded worker
// pool, index-aligned with outs (unacquired outcomes get nil — no scheme
// scores them). This is the shared-mask optimization: the seed recomputed
// the mask inside DeliveredAppBytes, once per outcome per curve, so a
// six-curve figure paid for ground-truth comparison six times.
func Masks(outs []sim.Outcome, workers int) [][]bool {
	masks := make([][]bool, len(outs))
	fanOut(len(outs), workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			if outs[i].Acquired {
				masks[i] = outs[i].CorrectMask()
			}
		}
	})
	return masks
}

// Post is a post-processor bound to one outcome trace: it owns the shared
// per-outcome correctness masks and the worker budget scheme scoring fans
// out over. Safe for concurrent use once constructed (all fields are
// read-only).
type Post struct {
	outs         []sim.Outcome
	masks        [][]bool
	payloadBytes int
	workers      int
}

// NewPost builds a post-processor over outs, computing the correctness
// masks once. workers bounds the fan-out (0 = all cores); results do not
// depend on it.
func NewPost(outs []sim.Outcome, payloadBytes, workers int) *Post {
	return &Post{
		outs:         outs,
		masks:        Masks(outs, workers),
		payloadBytes: payloadBytes,
		workers:      workers,
	}
}

// PerLinkDelivery scores every outcome of one variant under the scheme,
// fanning the trace out over the bounded worker pool and merging the
// shard-local accumulators. Accumulation is integer sums, so the result is
// identical for every worker count.
func (pp *Post) PerLinkDelivery(variant int, s schemes.RecoveryScheme, p SchemeParams) map[LinkKey]LinkAccum {
	appPerPkt := s.AppBytesPerPacket(p, pp.payloadBytes)
	maxShards := pp.workers
	if maxShards <= 0 {
		maxShards = runtime.NumCPU()
	}
	partial := make([]map[LinkKey]LinkAccum, maxShards)
	nShards := fanOut(len(pp.outs), pp.workers, func(shard, lo, hi int) {
		acc := map[LinkKey]LinkAccum{}
		for i := lo; i < hi; i++ {
			o := &pp.outs[i]
			if o.Variant != variant {
				continue
			}
			k := LinkKey{Src: o.Src, Rcv: o.Receiver}
			a := acc[k]
			a.Packets++
			a.SentBytes += appPerPkt
			if o.Acquired {
				a.DeliveredBytes += s.DeliveredAppBytes(pp.masks[i], o, p, pp.payloadBytes)
			}
			acc[k] = a
		}
		partial[shard] = acc
	})
	merged := map[LinkKey]LinkAccum{}
	for shard := 0; shard < nShards; shard++ {
		for k, a := range partial[shard] {
			m := merged[k]
			m.Packets += a.Packets
			m.SentBytes += a.SentBytes
			m.DeliveredBytes += a.DeliveredBytes
			merged[k] = m
		}
	}
	return merged
}

// Rates flattens per-link accumulators to a rate sample per link.
func Rates(acc map[LinkKey]LinkAccum) []float64 {
	out := make([]float64, 0, len(acc))
	for _, a := range acc {
		out = append(out, a.Rate())
	}
	return out
}

// ThroughputsKbps converts per-link delivered bytes to Kbit/s over the
// run's duration.
func ThroughputsKbps(acc map[LinkKey]LinkAccum, durationSec float64) []float64 {
	out := make([]float64, 0, len(acc))
	for _, a := range acc {
		out = append(out, float64(a.DeliveredBytes)*8/durationSec/1000)
	}
	return out
}

// Trace is one memoized simulation run: the schedule and the full outcome
// trace for both receiver variants at one operating point. Experiments
// post-process it; they never mutate it.
type Trace struct {
	// Cfg is the configuration the trace was produced under.
	Cfg sim.Config
	// Txs is the transmission schedule.
	Txs []*sim.Transmission
	// Outs is the per-(transmission, receiver, variant) outcome trace.
	Outs []sim.Outcome

	// maskOnce guards masks: the per-outcome correctness masks are built on
	// first use and shared by every figure post-processing the trace.
	maskOnce sync.Once
	masks    [][]bool
}

// Post returns a post-processor over the trace's outcomes. The correctness
// masks are computed once per trace — however many schemes, variants and
// figures score it — and workers bounds each call's delivery fan-out (0 =
// all cores; results do not depend on it).
func (tr *Trace) Post(workers int) *Post {
	tr.maskOnce.Do(func() { tr.masks = Masks(tr.Outs, workers) })
	return &Post{
		outs:         tr.Outs,
		masks:        tr.masks,
		payloadBytes: tr.Cfg.PacketBytes,
		workers:      workers,
	}
}

// traceKey identifies an operating point: everything that changes the trace.
// Workers is deliberately absent — the engine guarantees worker count does
// not change results.
type traceKey struct {
	seed         uint64
	quick        bool
	scenario     string
	load         float64
	carrierSense bool
}

// TraceCache memoizes simulation traces by operating point. This is the
// paper's own methodology made architectural: the testbed traces were
// collected once and every recovery scheme was post-processed over the same
// traces (Sec. 7.2), so the figures sharing an operating point — Fig. 9/10
// with the hint CDFs and Table 2, Fig. 11/12 with Summary — must share one
// simulation run instead of re-running it per figure. Safe for concurrent
// use; a cache miss runs the simulator outside the lock, so distinct
// operating points fill in parallel.
type TraceCache struct {
	mu      sync.Mutex
	entries map[traceKey]*traceEntry
	hits    int
	misses  int
}

// traceEntry pairs the fill lock with its trace so an in-flight Get keeps
// a handle to the entry it joined even if Reset swaps the map underneath.
// The lock is held across the fill simulation: concurrent Gets of the same
// point block on it (they need the trace anyway), and a fill aborted by
// cancellation leaves tr nil so the next caller retries.
type traceEntry struct {
	mu sync.Mutex
	tr *Trace
}

// NewTraceCache returns an empty cache.
func NewTraceCache() *TraceCache {
	return &TraceCache{entries: map[traceKey]*traceEntry{}}
}

// SharedTraces is the process-wide cache every experiment entry point draws
// from, so a suite regenerating all figures simulates each operating point
// exactly once.
var SharedTraces = NewTraceCache()

// Get returns the trace for (o, load, carrierSense), simulating it on first
// use. Concurrent callers asking for the same point block until the single
// simulation finishes; callers asking for different points proceed.
func (c *TraceCache) Get(o Options, load float64, carrierSense bool) *Trace {
	// A background context never cancels, so the fill cannot fail.
	tr, _ := c.GetContext(context.Background(), o, load, carrierSense)
	return tr
}

// GetContext is Get under a context: a cache miss runs the simulation with
// ctx threaded down to the delivery windows (see sim.DeliverContext), so a
// cancel or deadline aborts the fill promptly. An aborted fill does not
// poison the cache — the entry is dropped and a later Get retries. A caller
// joining another caller's in-flight fill blocks until that fill resolves
// (it needs the trace regardless); if the filler was cancelled, the joiner
// re-attempts the fill under its own context.
func (c *TraceCache) GetContext(ctx context.Context, o Options, load float64, carrierSense bool) (*Trace, error) {
	key := traceKey{
		seed:         o.Seed,
		quick:        o.Quick,
		scenario:     o.Scenario,
		load:         load,
		carrierSense: carrierSense,
	}
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &traceEntry{}
		c.entries[key] = e
		c.misses++
		mCacheMisses.Get().Inc()
	} else {
		c.hits++
		mCacheHits.Get().Inc()
	}
	c.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.tr == nil {
		cfg := o.simConfig(o.Bed(), load, carrierSense)
		fillStart := time.Now()
		txs, outs, err := sim.RunContext(ctx, cfg)
		if err != nil {
			// Drop the unfilled entry (unless Reset already replaced the
			// map) so a future Get simulates instead of seeing a nil trace.
			c.mu.Lock()
			if c.entries[key] == e {
				delete(c.entries, key)
			}
			c.mu.Unlock()
			return nil, err
		}
		e.tr = &Trace{Cfg: cfg, Txs: txs, Outs: outs}
		mCacheFillNs.Get().Observe(time.Since(fillStart).Nanoseconds())
		// A joiner re-filling an entry a cancelled filler dropped from the
		// map must re-insert it, or every later Get of this point would
		// miss and re-simulate. The normal path (entry still mapped) and a
		// racing fresh fill (different entry mapped) both skip the insert.
		c.mu.Lock()
		if _, ok := c.entries[key]; !ok {
			c.entries[key] = e
		}
		c.mu.Unlock()
	}
	return e.tr, nil
}

// Stats returns the cache's hit and miss counts so speedup claims can be
// measured rather than asserted.
func (c *TraceCache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Reset drops every cached trace and zeroes the counters (cold-cache
// benchmarks). Gets already in flight keep the entry they joined, so they
// still return a complete trace.
func (c *TraceCache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[traceKey]*traceEntry{}
	c.hits, c.misses = 0, 0
}

// Trace returns the cached trace for one operating point under these
// options (Options.Cache, defaulting to SharedTraces).
func (o Options) Trace(load float64, carrierSense bool) *Trace {
	return o.cache().Get(o, load, carrierSense)
}

// TraceContext is Trace under a context — the entry point every figure
// uses, so a Runner cancellation reaches the simulation windows.
func (o Options) TraceContext(ctx context.Context, load float64, carrierSense bool) (*Trace, error) {
	return o.cache().GetContext(ctx, o, load, carrierSense)
}
