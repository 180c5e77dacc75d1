// Package netsim is the closed-loop network simulator of the repo: a
// discrete-event engine in which every node runs a real link-layer state
// machine over the shared CSMA channel, so acknowledgements, PP-ARQ feedback
// frames and partial retransmissions occupy airtime and collide like any
// other transmission. It exists to reproduce the paper's headline result
// (Sec. 7.5, Fig. 17): when the cost of feedback and retransmission is paid
// *on the channel* instead of accounted after the fact, PP-ARQ roughly
// doubles aggregate network throughput over the status quo.
//
// The open-loop engine (internal/sim) schedules a fixed transmission
// timeline and post-processes the resulting trace under each recovery
// scheme; the offered load never reacts to what was lost. Here the loop is
// closed: a flow's next frame — the initial data packet, the receiver's
// feedback, the sender's partial retransmission — is decided by the protocol
// from what actually arrived, and its transmit time is decided by the MAC
// from what the channel is actually carrying.
//
// # Execution model
//
// A run executes on a Topology — the paper's fixed 27-node testbed or a
// declarative internal/topo layout of up to tens of thousands of nodes. At
// startup the engine prunes the audibility graph: for every node it
// precomputes the set of nodes that receive it above the synthesis floor
// (noise floor − 10 dB). A transmission only ever touches those neighbors —
// carrier sense, interference and delivery below the floor are exactly the
// contributions synthesis would have discarded anyway.
//
// The connected components of that graph (unioned with each flow's
// endpoint pair) are independent interference domains: no transmission in
// one can affect any reception, carrier-sense query or half-duplex conflict
// in another. The engine therefore shards its event queue by domain and
// runs the shards concurrently on a bounded worker pool (Config.Workers).
// Each shard owns a virtual clock in chips and a priority queue of events;
// each flow runs its LinkLayer (PP-ARQ via internal/core/pparq, or one of
// the status-quo ARQ baselines) as a coroutine of its shard: the link
// layer's blocking Link.Transmit call yields to the engine, which queues
// the transmission, applies carrier sense at the transmitting node against
// everything currently on the air, commits the frame to the shared
// timeline, and — once the virtual clock passes the frame's end —
// synthesizes the destination's chip stream (interference from every
// concurrently committed audible transmission included, via internal/radio)
// and resumes the flow with the reception. Exactly one goroutine runs at
// any instant *per shard*, and events at equal times order
// deterministically, so a run is a pure function of its Config.
//
// Randomness is drawn from generators derived with stats.RNG.Derive keyed
// on stable (node, chip-time) or (flow, tag) coordinates: channel noise and
// fading from the receiving node and the transmission's start chip, CSMA
// backoff from the sensing node and the arrival chip, payloads from the
// global flow index. Derive reads its parent's state without advancing it,
// so concurrent shards draw from the shared base generator race-free, and
// results are bit-identical for every worker count — and to the single
// merged event queue (the unexported Config.singleQueue test hook), which
// exists as the reference engine for that equivalence.
//
// Jammer nodes integrate as pure event sources driven by internal/jam
// strategies: the engine polls each strategy's emitter with what the jammer
// senses, and the bursts it fires interfere with — and trigger recovery
// in — every flow in their domain.
package netsim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"ppr/internal/jam"
	"ppr/internal/mac"
	"ppr/internal/obs"
	"ppr/internal/radio"
	"ppr/internal/scenario"
	"ppr/internal/stats"
)

// Topology abstracts the deployment a run executes on: a node count, the
// static link budget between every ordered node pair, and the propagation
// environment. *testbed.Testbed (the paper's 27-node office) and
// *topo.Topology (declarative grids/meshes/cell layouts) both satisfy it.
type Topology interface {
	// NumNodes returns the deployment size; node IDs are 0..NumNodes-1.
	NumNodes() int
	// NodeGainDBm returns the received power at node `to` of node `from`'s
	// transmissions, transmit power and static shadowing folded in.
	NodeGainDBm(from, to int) float64
	// RadioParams returns the propagation environment.
	RadioParams() radio.Params
}

// Flow is one closed-loop traffic flow: a sender streaming packets to a
// receiver through a LinkLayer. Both are global node IDs of the Topology
// (on the paper's testbed, receiver r is node testbed.NumSenders+r).
type Flow struct {
	Sender   int
	Receiver int
}

// JammerNode overlays an adversarial event source on the shared channel: a
// node transmitting jam bursts under a composable internal/jam strategy,
// regardless of carrier sense.
type JammerNode struct {
	// Sender is the global node ID the jammer transmits from. It must not
	// also be a flow endpoint.
	Sender int
	// Strategy drives the jammer: the engine polls the strategy's emitter at
	// the instants it asks for, hands it a per-channel busy observation plus
	// the audible active transmissions, and commits a burst when it fires.
	Strategy jam.Strategy
	// BurstBytes sizes the bursts; 0 means scenario.JamBurstBytes (40).
	BurstBytes int
	// PowerDeltaDBm shifts this jammer's link budget toward every other node
	// — a stronger (or weaker) adversary without touching the topology.
	PowerDeltaDBm float64
}

// Config describes one closed-loop run.
type Config struct {
	// Topo is the deployment to run on: the paper's *testbed.Testbed, a
	// declarative internal/topo layout, or anything satisfying Topology.
	// Flow and JammerNode node fields are its global node IDs.
	Topo Topology
	// Flows are the concurrent closed-loop flows sharing the channel.
	Flows []Flow
	// LinkLayer names the registered link layer every flow runs (see
	// LinkLayerNames); "" means PP-ARQ.
	LinkLayer string
	// PacketBytes is the link-layer payload size per data packet.
	PacketBytes int
	// DurationSec is the simulated airtime: flows stop opening new transfers
	// once the virtual clock passes it (the transfer in flight completes).
	DurationSec float64
	// CarrierSense toggles CSMA for every well-behaved transmission, control
	// frames included — in a closed-loop world feedback contends for the
	// medium like data.
	CarrierSense bool
	// Seed fixes all traffic, backoff, noise and fading randomness.
	Seed uint64
	// Traffic paces each flow's transfer openings; nil means saturated
	// (back-to-back transfers, the paper's "streams packets as fast as the
	// protocol allows"). Arrivals in a flow's backlog queue: an arrival that
	// falls while a transfer is still in progress starts immediately after.
	Traffic scenario.TrafficModel
	// OfferedBps scales Traffic (unused when saturated).
	OfferedBps float64
	// Jammers are adversarial event sources overlaid on the channel.
	Jammers []JammerNode
	// NumChannels is the number of orthogonal channels sharing the
	// deployment; 0 means 1. Flows start on channel 0 and retune through
	// ChannelSetter (the channel-hopping countermeasure layers do); jam
	// strategies pick their burst channel per poll. Transmissions interfere
	// and carrier-sense only within a channel; half-duplex conflicts span
	// all of them (one radio per node).
	NumChannels int
	// FragBytes is the fragmented-CRC layer's fragment size; 0 means the
	// paper's 50 bytes.
	FragBytes int
	// MaxRounds and MaxAttempts bound every link layer's persistence per
	// transfer; 0 means the PP-ARQ defaults (8 rounds, 16 attempts).
	MaxRounds, MaxAttempts int
	// Workers bounds how many interference-domain shards execute
	// concurrently; 0 means one per CPU. Results are bit-identical for
	// every value — parallelism is pure mechanism.
	Workers int
	// Tracer, when non-nil, records the run's discrete-event timeline in
	// Chrome trace format (one lane per interference domain; transmissions
	// and backoffs as spans, receptions as instants — see internal/obs).
	// Purely observational: the Result is bit-identical with or without it.
	Tracer *obs.Tracer

	// singleQueue forces all domains through one merged event queue — the
	// pre-sharding reference engine. Results are bit-identical to the
	// sharded runs; the package's tests set it to prove worker invariance.
	singleQueue bool
}

// FlowResult is one flow's accounting over a run.
type FlowResult struct {
	// Flow identifies the flow.
	Flow Flow
	// DeliveredAppBytes counts application bytes verified at the receiver.
	DeliveredAppBytes int
	// Transfers counts transfers attempted; Failures those given up on.
	Transfers, Failures int
	// Air aggregates the link layer's byte accounting across transfers.
	Air LinkStats
}

// Result is one closed-loop run's output.
type Result struct {
	// Flows holds per-flow accounting, in Config.Flows order.
	Flows []FlowResult
	// DurationSec echoes the configured duration.
	DurationSec float64
	// BusyChips sums, over interference domains, the union channel
	// occupancy within the domain: chips during which at least one node of
	// the domain was transmitting. On a single-domain deployment (the
	// testbed) this is the plain union occupancy; on a sharded mesh it can
	// exceed the run duration, because disjoint domains carry traffic
	// simultaneously.
	BusyChips int64
	// TxChips is the sum of all transmission lengths (exceeds BusyChips
	// exactly when transmissions overlapped — collisions happened).
	TxChips int64
	// JamFrames counts jam bursts committed to the channel; JamChips their
	// total airtime — the network's jam exposure.
	JamFrames int
	JamChips  int64
	// Domains is the number of interference domains in the deployment
	// (audibility components unioned with flow endpoints).
	Domains int
}

// AggregateAppBytes sums delivered application bytes across flows.
func (r Result) AggregateAppBytes() int {
	total := 0
	for _, f := range r.Flows {
		total += f.DeliveredAppBytes
	}
	return total
}

// AggregateKbps returns network-wide delivered application throughput.
func (r Result) AggregateKbps() float64 {
	return float64(r.AggregateAppBytes()) * 8 / r.DurationSec / 1000
}

// Derive-key tags separating the engine's independent random streams.
const (
	tagChannel = iota + 1
	tagCSMA
	tagPayload
	tagJammer
)

// interferenceFloorDB mirrors internal/sim: transmissions weaker than this
// below the noise floor are dropped from synthesis — and, since PR 7, from
// carrier sense and the audibility graph, which is what makes domains
// separable at all.
const interferenceFloorDB = 10

// AudibilityFloorDBm returns the engine's audibility floor under the given
// environment: links below it neither interfere nor carrier-sense, and the
// interference-domain partition is the connectivity of the remaining links.
func AudibilityFloorDBm(p radio.Params) float64 {
	return p.NoiseFloorDBm - interferenceFloorDB
}

// windowMarginChips pads synthesis windows on both sides of a transmission.
const windowMarginChips = 64

// maxTopologyNodes bounds deployments to what frame addressing carries:
// node IDs are uint16 and 0xffff is the jam broadcast address.
const maxTopologyNodes = 0xffff

// flowSpec is a validated flow: its global index (the Derive payload key)
// and endpoint global node IDs.
type flowSpec struct {
	id       int
	src, dst int
}

// jamSpec is a validated jammer: its global index and node ID.
type jamSpec struct {
	id   int
	node int
	spec JammerNode
}

// runState is everything shared across shards: the deployment, the pruned
// audibility graph, the domain partition, and per-node/per-domain
// accumulators. Shards touch disjoint node and domain indices, so no locks
// are involved; the base RNG is only read through Derive, which does not
// advance it.
type runState struct {
	cfg     Config
	top     Topology
	nn      int
	nCh     int
	base    *stats.RNG
	csma    mac.CSMA
	noiseMW float64
	floorMW float64
	endChip int64

	// Pruned audibility graph: heardBy[u] lists the nodes that receive u at
	// or above the synthesis floor (u excluded), heardByPw the received
	// power at each in mW, and hearsPw[v] the reverse index for synthesis.
	heardBy   [][]int32
	heardByPw [][]float64
	hearsPw   []map[int32]float64

	domainOf []int32
	nDomains int

	// Per-node engine state, disjoint across shards (a node belongs to
	// exactly one domain). busyAcc and contrib are per (channel, node),
	// indexed ch*nn+node — at one channel that is exactly the old per-node
	// layout, float operation order included.
	nodeFree []int64   // radio busy-until (one radio per node)
	busyAcc  []float64 // accumulated audible interference, mW
	contrib  []int32   // active transmissions contributing to busyAcc

	// Per-domain union-occupancy accounting:
	domBusy []int64
	domLast []int64

	// Observability (nil when disabled; see internal/netsim/obs.go):
	m     *netsimMetrics
	lanes []*obs.TraceLane // timeline lane per domain, nil without a Tracer
}

// Run executes one closed-loop simulation. It is a pure function of cfg:
// the same configuration always produces the identical Result, whatever
// Workers says.
func Run(cfg Config) (Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run under a context: every shard's event loop checks ctx at
// every event, and on cancellation stops committing transmissions, resumes
// each blocked flow coroutine with nil receptions and a clock past the end
// of the run so its link layer fails fast, and returns ctx.Err() with no
// goroutine left behind. A nil error means the Result is complete and
// bit-identical to Run's.
func RunContext(ctx context.Context, cfg Config) (Result, error) {
	top, flows, jams, err := normalize(cfg)
	if err != nil {
		return Result{}, err
	}
	maker, err := linkLayerMaker(cfg.LinkLayer)
	if err != nil {
		return Result{}, err
	}
	rs := newRunState(cfg, top, flows, jams)
	rs.m = newNetsimMetrics(flows)
	if cfg.Tracer != nil {
		layer := cfg.LinkLayer
		if layer == "" {
			layer = "pp-arq"
		}
		proc := cfg.Tracer.Process(
			fmt.Sprintf("netsim %s seed=%#x", layer, cfg.Seed),
			1e6/float64(mac.ChipRateHz))
		rs.lanes = make([]*obs.TraceLane, rs.nDomains)
		for d := 0; d < rs.nDomains; d++ {
			rs.lanes[d] = proc.Lane(int64(d), fmt.Sprintf("domain %d", d))
		}
	}
	shards := buildShards(rs, flows, jams, maker)
	if err := runShards(ctx, shards, cfg.Workers); err != nil {
		return Result{}, err
	}

	res := Result{
		DurationSec: cfg.DurationSec,
		Domains:     rs.nDomains,
		Flows:       make([]FlowResult, len(flows)),
	}
	for _, b := range rs.domBusy {
		res.BusyChips += b
	}
	for _, s := range shards {
		res.TxChips += s.txChips
		res.JamFrames += s.jamFrames
		res.JamChips += s.jamChips
		for _, fl := range s.flows {
			res.Flows[fl.spec.id] = fl.res
		}
	}
	return res, nil
}

// normalize validates the configuration and resolves flows and jammers to
// their specs.
func normalize(cfg Config) (Topology, []flowSpec, []jamSpec, error) {
	top := cfg.Topo
	if top == nil {
		return nil, nil, nil, fmt.Errorf("netsim: nil Topo")
	}
	if len(cfg.Flows) == 0 {
		return nil, nil, nil, fmt.Errorf("netsim: no flows")
	}
	if cfg.PacketBytes <= 0 || cfg.DurationSec <= 0 {
		return nil, nil, nil, fmt.Errorf("netsim: bad packet size %d or duration %v", cfg.PacketBytes, cfg.DurationSec)
	}
	if cfg.NumChannels < 0 || cfg.NumChannels > 256 {
		return nil, nil, nil, fmt.Errorf("netsim: %d channels out of range (jam bursts address at most 256)", cfg.NumChannels)
	}
	nn := top.NumNodes()
	if nn > maxTopologyNodes {
		return nil, nil, nil, fmt.Errorf("netsim: %d nodes exceed the %d frame addressing allows", nn, maxTopologyNodes)
	}

	flows := make([]flowSpec, len(cfg.Flows))
	endpoint := make(map[int]bool) // any flow endpoint
	sender := make(map[int]bool)   // flow senders (one radio per node)
	for i, f := range cfg.Flows {
		if f.Sender < 0 || f.Sender >= nn || f.Receiver < 0 || f.Receiver >= nn {
			return nil, nil, nil, fmt.Errorf("netsim: flow %v out of deployment bounds", f)
		}
		if f.Sender == f.Receiver {
			return nil, nil, nil, fmt.Errorf("netsim: flow %v sends to itself", f)
		}
		if sender[f.Sender] {
			return nil, nil, nil, fmt.Errorf("netsim: sender %d carries two flows (one radio per node)", f.Sender)
		}
		sender[f.Sender] = true
		endpoint[f.Sender], endpoint[f.Receiver] = true, true
		flows[i] = flowSpec{id: i, src: f.Sender, dst: f.Receiver}
	}

	jams := make([]jamSpec, len(cfg.Jammers))
	jammed := make(map[int]bool)
	for i, j := range cfg.Jammers {
		node := j.Sender
		if node < 0 || node >= nn || endpoint[node] {
			return nil, nil, nil, fmt.Errorf("netsim: jammer node %d invalid or already a flow endpoint", node)
		}
		if jammed[node] {
			return nil, nil, nil, fmt.Errorf("netsim: jammer node %d used twice (one radio per node)", node)
		}
		if j.Strategy == nil {
			return nil, nil, nil, fmt.Errorf("netsim: jammer node %d has no jam strategy", node)
		}
		if j.BurstBytes <= 0 {
			j.BurstBytes = scenario.JamBurstBytes
		}
		jammed[node] = true
		jams[i] = jamSpec{id: i, node: node, spec: j}
	}
	return top, flows, jams, nil
}

// newRunState precomputes the pruned audibility graph and the interference
// domains. The pairwise sweep filters in dB first (cheap) and only converts
// near- or above-floor budgets to milliwatts, comparing those against the
// floor in linear units — the exact comparison synthesis used before
// sharding, so pruning changes which work happens, never what it computes.
// Jammer power deltas fold into the sweep here: a boosted jammer is simply a
// node whose outgoing link budget is higher everywhere.
func newRunState(cfg Config, top Topology, flows []flowSpec, jams []jamSpec) *runState {
	params := top.RadioParams()
	nn := top.NumNodes()
	nCh := cfg.NumChannels
	if nCh <= 0 {
		nCh = 1
	}
	rs := &runState{
		cfg:       cfg,
		top:       top,
		nn:        nn,
		nCh:       nCh,
		base:      stats.NewRNG(cfg.Seed ^ 0xc105ed100f),
		noiseMW:   radio.DBmToMW(params.NoiseFloorDBm),
		floorMW:   radio.DBmToMW(AudibilityFloorDBm(params)),
		endChip:   mac.ChipsPerSecond(cfg.DurationSec),
		nodeFree:  make([]int64, nn),
		busyAcc:   make([]float64, nn*nCh),
		contrib:   make([]int32, nn*nCh),
		hearsPw:   make([]map[int32]float64, nn),
		heardBy:   make([][]int32, nn),
		heardByPw: make([][]float64, nn),
	}
	rs.csma = mac.DefaultCSMA(radio.DBmToMW(params.CSThresholdDBm))
	rs.csma.Enabled = cfg.CarrierSense

	// Outgoing per-node gain shift, nil unless some jammer carries a delta —
	// the nil path leaves the sweep's arithmetic untouched bit for bit.
	var delta []float64
	for _, j := range jams {
		if j.spec.PowerDeltaDBm != 0 {
			if delta == nil {
				delta = make([]float64, nn)
			}
			delta[j.node] = j.spec.PowerDeltaDBm
		}
	}

	// floorDBm-0.1 is a conservative dB prefilter: DBmToMW is monotone up
	// to rounding, so anything more than a tenth of a dB under the floor is
	// certainly under it in mW too, and the exact mW comparison only runs
	// near the boundary.
	floorDBm := AudibilityFloorDBm(params)
	parent := make([]int32, nn)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for u := 0; u < nn; u++ {
		for v := 0; v < nn; v++ {
			if u == v {
				continue
			}
			g := top.NodeGainDBm(u, v)
			if delta != nil {
				g += delta[u]
			}
			if g < floorDBm-0.1 {
				continue
			}
			p := radio.DBmToMW(g)
			if p < rs.floorMW {
				continue
			}
			rs.heardBy[u] = append(rs.heardBy[u], int32(v))
			rs.heardByPw[u] = append(rs.heardByPw[u], p)
			if rs.hearsPw[v] == nil {
				rs.hearsPw[v] = make(map[int32]float64)
			}
			rs.hearsPw[v][int32(u)] = p
			union(int32(u), int32(v))
		}
	}
	// A flow's endpoints always share a domain, audible or not, so the
	// flow's events live on one queue.
	for _, f := range flows {
		union(int32(f.src), int32(f.dst))
	}
	rs.domainOf = make([]int32, nn)
	label := make(map[int32]int32, 8)
	for i := 0; i < nn; i++ {
		r := find(int32(i))
		id, ok := label[r]
		if !ok {
			id = int32(rs.nDomains)
			label[r] = id
			rs.nDomains++
		}
		rs.domainOf[i] = id
	}
	rs.domBusy = make([]int64, rs.nDomains)
	rs.domLast = make([]int64, rs.nDomains)
	return rs
}

// buildShards groups flows and jammers into one shard per interference
// domain — or one shard total under singleQueue. Domains with no event
// sources get no shard: nothing would ever happen there.
func buildShards(rs *runState, flows []flowSpec, jams []jamSpec, maker Maker) []*shard {
	byDomain := make(map[int32]*shard)
	var shards []*shard
	shardFor := func(node int) *shard {
		d := rs.domainOf[node]
		if rs.cfg.singleQueue {
			d = 0 // one merged queue
		}
		s, ok := byDomain[d]
		if !ok {
			s = newShard(rs, len(shards))
			byDomain[d] = s
			shards = append(shards, s)
		}
		return s
	}
	for _, f := range flows {
		s := shardFor(f.src)
		s.addFlow(f, maker)
	}
	for _, j := range jams {
		s := shardFor(j.node)
		s.addJam(j)
	}
	return shards
}

// runShards executes the shards on a bounded worker pool. Shards share no
// mutable state (see runState), so execution order and interleaving cannot
// affect results; the pool exists purely for wall-clock. Cancelled shards
// still run — each must drain its own flow coroutines.
func runShards(ctx context.Context, shards []*shard, workers int) error {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(shards) {
		workers = len(shards)
	}
	if workers <= 1 {
		var firstErr error
		for _, s := range shards {
			if err := s.run(ctx); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	errs := make([]error, len(shards))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(shards) {
					return
				}
				errs[i] = shards[i].run(ctx)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// layerConfig assembles the per-flow link layer knobs.
func layerConfig(cfg Config) LinkConfig {
	nCh := cfg.NumChannels
	if nCh <= 0 {
		nCh = 1
	}
	return LinkConfig{
		PacketBytes: cfg.PacketBytes,
		FragBytes:   cfg.FragBytes,
		MaxRounds:   cfg.MaxRounds,
		MaxAttempts: cfg.MaxAttempts,
		NumChannels: nCh,
	}
}
