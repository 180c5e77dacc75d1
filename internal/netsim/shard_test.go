package netsim

import (
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"

	"ppr/internal/jam"
	"ppr/internal/mac"
	"ppr/internal/radio"
	"ppr/internal/topo"
)

// meshTopo builds a 4-cell city topology: cells 2000 ft apart (≈21 dB past
// the audibility floor at the default exponent, >5σ of shadowing) so each
// dense cell is guaranteed to be its own interference domain.
func meshTopo(t *testing.T, cellsX, cellsY, perCell int) *topo.Topology {
	t.Helper()
	tp, err := topo.CellGrid(cellsX, cellsY, perCell, 2000, 25, radio.DefaultParams(), 42)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// cellFlows pairs up adjacent nodes inside every cell: node 2k sends to
// node 2k+1.
func cellFlows(tp *topo.Topology, perCell int) []Flow {
	var flows []Flow
	for base := 0; base < tp.NumNodes(); base += perCell {
		for k := 0; k+1 < perCell; k += 2 {
			flows = append(flows, Flow{Sender: base + k, Receiver: base + k + 1})
		}
	}
	return flows
}

// TestShardWorkerInvariance is the determinism contract of the tentpole:
// on a topology with four disjoint interference domains (plus a jammer),
// the sharded engine must produce bit-identical results for every worker
// count — and bit-identical to the single merged event queue, the
// pre-sharding reference.
func TestShardWorkerInvariance(t *testing.T) {
	const perCell = 5 // odd: node 4 of each cell carries no flow
	tp := meshTopo(t, 2, 2, perCell)
	cfg := Config{
		Topo:         tp,
		Flows:        cellFlows(tp, perCell),
		PacketBytes:  250,
		DurationSec:  0.05,
		CarrierSense: true,
		Seed:         7,
		Jammers: []JammerNode{{
			Sender:     4, // the flow-less node of cell 0
			Strategy:   jam.Periodic{PeriodChips: 9_000, JitterChips: 500},
			BurstBytes: 60,
		}},
	}
	ref := cfg
	ref.singleQueue = true
	want, err := Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	if want.Domains != 4 {
		t.Fatalf("expected 4 interference domains, engine found %d", want.Domains)
	}
	if want.JamFrames == 0 {
		t.Fatal("jammer never fired — the test exercises no jam path")
	}
	delivered := 0
	for _, fr := range want.Flows {
		delivered += fr.DeliveredAppBytes
	}
	if delivered == 0 {
		t.Fatal("nothing delivered — the test exercises no data path")
	}
	for _, workers := range []int{1, 2, 3, 8} {
		got := cfg
		got.Workers = workers
		res, err := Run(got)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, want) {
			t.Errorf("workers=%d diverges from the single-queue reference", workers)
		}
	}
}

// TestShardSingleDomainDegenerate: a fully-connected topology collapses to
// one shard, and must still match the single-queue engine for any worker
// count — the degenerate case where sharding buys nothing but must cost
// nothing.
func TestShardSingleDomainDegenerate(t *testing.T) {
	tp, err := topo.Grid(3, 2, 12, radio.DefaultParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Topo:         tp,
		Flows:        []Flow{{Sender: 0, Receiver: 1}, {Sender: 2, Receiver: 3}, {Sender: 4, Receiver: 5}},
		PacketBytes:  250,
		DurationSec:  0.05,
		CarrierSense: true,
		Seed:         9,
	}
	ref := cfg
	ref.singleQueue = true
	want, err := Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	if want.Domains != 1 {
		t.Fatalf("12-ft grid split into %d domains", want.Domains)
	}
	for _, workers := range []int{1, 8} {
		got := cfg
		got.Workers = workers
		res, err := Run(got)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, want) {
			t.Errorf("workers=%d diverges on the single-domain topology", workers)
		}
	}
}

// TestFlowMergesDomains: a flow whose endpoints sit in mutually inaudible
// cells must pull both cells into one domain (its deliver events need one
// queue), even though no link above the floor connects them.
func TestFlowMergesDomains(t *testing.T) {
	tp := meshTopo(t, 2, 1, 2)
	base := Config{
		Topo:         tp,
		Flows:        []Flow{{Sender: 0, Receiver: 1}, {Sender: 2, Receiver: 3}},
		PacketBytes:  250,
		DurationSec:  0.02,
		CarrierSense: true,
		Seed:         5,
	}
	res, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if res.Domains != 2 {
		t.Fatalf("intra-cell flows: %d domains, want 2", res.Domains)
	}
	cross := base
	cross.Flows = []Flow{{Sender: 0, Receiver: 2}}
	res, err = Run(cross)
	if err != nil {
		t.Fatal(err)
	}
	if res.Domains != 1 {
		t.Errorf("cross-cell flow: %d domains, want 1", res.Domains)
	}
	// The link is far below the audibility floor: the transfer must fail,
	// not deliver.
	if res.Flows[0].DeliveredAppBytes != 0 {
		t.Errorf("delivered %d bytes over a 2000-ft link", res.Flows[0].DeliveredAppBytes)
	}
	if res.Flows[0].Failures == 0 {
		t.Error("inaudible flow reported no failures")
	}
}

// TestBusyAccumulatorParity checks the satellite O(1) carrier-sense
// accumulator against the brute-force active-transmission scan it replaced,
// at every query of a contended, jammed run.
func TestBusyAccumulatorParity(t *testing.T) {
	var mu sync.Mutex
	queries := 0
	worst := 0.0
	busyParityCheck = func(acc, brute float64) {
		mu.Lock()
		defer mu.Unlock()
		queries++
		diff := math.Abs(acc - brute)
		if rel := diff / math.Max(acc, brute); rel > worst {
			worst = rel
		}
	}
	defer func() { busyParityCheck = nil }()

	tb := bed()
	cfg := Config{
		Topo:         tb,
		Flows:        []Flow{bestFlow(tb, 0), bestFlow(tb, 1), bestFlow(tb, 4), bestFlow(tb, 12)},
		PacketBytes:  250,
		DurationSec:  0.1,
		CarrierSense: true,
		Seed:         3,
		Jammers: []JammerNode{{
			Sender:     9,
			Strategy:   jam.Periodic{PeriodChips: 15_000, JitterChips: 2_000},
			BurstBytes: 80,
		}},
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if queries == 0 {
		t.Fatal("no carrier-sense queries issued")
	}
	if worst > 1e-9 {
		t.Errorf("accumulator drifted %.3g (relative) from the brute-force sum over %d queries", worst, queries)
	}
}

// TestEventHeapOrdering: the hand-rolled value heap must pop in exactly
// (t, kind, seq) order.
func TestEventHeapOrdering(t *testing.T) {
	var q []event
	seq := int64(0)
	push := func(tm int64, kind int8) {
		heapPush(&q, event{t: tm, seq: seq, kind: kind})
		seq++
	}
	// A deliberately adversarial mix: equal times across kinds, equal
	// (t, kind) resolved by push order.
	for i := 0; i < 200; i++ {
		push(int64((i*37)%50), int8(i%3))
	}
	var got []event
	for len(q) > 0 {
		got = append(got, heapPop(&q))
	}
	want := append([]event(nil), got...)
	sort.SliceStable(want, func(a, b int) bool { return want[a].before(want[b]) })
	if !reflect.DeepEqual(got, want) {
		t.Fatal("heap pop order violates (t, kind, seq)")
	}
	for i := 1; i < len(got); i++ {
		if got[i].before(got[i-1]) {
			t.Fatalf("pop %d out of order", i)
		}
	}
}

// TestEventHeapZeroAllocs pins the satellite GC win: once the backing
// slices have grown, steady-state pushes and pops of both engine heaps
// allocate nothing (container/heap boxed one event per push).
func TestEventHeapZeroAllocs(t *testing.T) {
	q := make([]event, 0, 256)
	act := make([]activeTx, 0, 256)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 128; i++ {
			heapPush(&q, event{t: int64((i * 31) % 64), seq: int64(i)})
			heapPush(&act, activeTx{end: int64((i * 17) % 64), idx: int32(i)})
		}
		for len(q) > 0 {
			heapPop(&q)
		}
		for len(act) > 0 {
			heapPop(&act)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state heap churn allocates %v per run, want 0", allocs)
	}
}

// fakeTopo is a Topology stub for validation tests.
type fakeTopo int

func (n fakeTopo) NumNodes() int                  { return int(n) }
func (fakeTopo) NodeGainDBm(from, to int) float64 { return -300 }
func (fakeTopo) RadioParams() radio.Params        { return radio.DefaultParams() }

func TestTopoConfigValidation(t *testing.T) {
	tp := meshTopo(t, 1, 1, 4)
	ok := Config{Topo: tp, Flows: []Flow{{Sender: 0, Receiver: 1}}, PacketBytes: 100, DurationSec: 0.01}
	if _, err := Run(ok); err != nil {
		t.Fatalf("baseline topo config rejected: %v", err)
	}
	strat := jam.Periodic{}
	bad := map[string]Config{
		"self flow":       func() Config { c := ok; c.Flows = []Flow{{Sender: 1, Receiver: 1}}; return c }(),
		"receiver range":  func() Config { c := ok; c.Flows = []Flow{{Sender: 0, Receiver: 4}}; return c }(),
		"sender range":    func() Config { c := ok; c.Flows = []Flow{{Sender: -1, Receiver: 1}}; return c }(),
		"dup sender":      func() Config { c := ok; c.Flows = []Flow{{0, 1}, {0, 2}}; return c }(),
		"jam on sender":   func() Config { c := ok; c.Jammers = []JammerNode{{Sender: 0, Strategy: strat}}; return c }(),
		"jam on receiver": func() Config { c := ok; c.Jammers = []JammerNode{{Sender: 1, Strategy: strat}}; return c }(),
		"jam twice": func() Config {
			c := ok
			c.Jammers = []JammerNode{{Sender: 2, Strategy: strat}, {Sender: 2, Strategy: strat}}
			return c
		}(),
		"jam out of range": func() Config { c := ok; c.Jammers = []JammerNode{{Sender: 99, Strategy: strat}}; return c }(),
		"too many nodes": func() Config {
			c := ok
			c.Topo = fakeTopo(0x10000)
			c.Flows = []Flow{{Sender: 0, Receiver: 1}}
			return c
		}(),
	}
	for name, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestTestbedIsOneDomain: the paper's 100×50-ft office is far inside the
// ~316-ft audibility radius, so the classic deployment runs as a single
// shard and its results keep the pre-sharding union-occupancy semantics.
func TestTestbedIsOneDomain(t *testing.T) {
	res, err := Run(baseConfig(bed()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Domains != 1 {
		t.Errorf("testbed partitioned into %d domains", res.Domains)
	}
	if res.BusyChips > mac.ChipsPerSecond(res.DurationSec)+res.TxChips {
		t.Errorf("implausible busy accounting: busy=%d", res.BusyChips)
	}
}
