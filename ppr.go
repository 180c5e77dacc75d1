// Package ppr is a from-scratch Go implementation of PPR — Partial Packet
// Recovery for wireless networks (Jamieson & Balakrishnan, SIGCOMM 2007) —
// together with the complete 802.15.4 DSSS stack and testbed simulator it
// is evaluated on.
//
// The three contributions of the paper map onto this package as follows:
//
//   - SoftPHY (Sec. 3): the PHY annotates every decoded symbol with a
//     confidence hint. See Decision, the Decoder implementations
//     (HardDecoder reports Hamming distance; SoftDecoder the Eq. 1
//     correlation; MatchedFilterDecoder the raw filter output), and the
//     link-layer threshold rules Threshold and Adaptive.
//
//   - Postamble decoding (Sec. 4): frames carry a trailer and postamble
//     replica of the header, and Receiver locks onto either end of a
//     packet, rolling back through its buffer when only the postamble
//     survived a collision. See Frame, Receiver and Reception.
//
//   - PP-ARQ (Sec. 5): the receiver labels symbol runs good/bad, chunks
//     the bad runs with the Eq. 4/5 dynamic program, and requests partial
//     retransmission with checksummed feedback. See OptimalChunks,
//     Request/Response, Assembler and ARQSender.
//
// The substrates (chip-level channel with interference and Rician fading,
// CSMA MAC, 27-node testbed, sample-level MSK modem) live under the same
// roof so the paper's full evaluation — every table and figure — can be
// regenerated; see cmd/pprsim and the Fig*/Table*/Summary functions.
//
// # Simulation engine and scenarios
//
// The simulator follows the paper's trace-driven methodology (Sec. 7.2):
// RunSim schedules traffic, synthesizes every receiver's chip stream and
// returns a symbol-level outcome trace that the experiment code
// post-processes under each recovery scheme. Delivery fans out over
// independent (receiver, window) work units on SimConfig.Workers
// goroutines; every window derives its randomness from (seed, receiver,
// window origin), so traces are bit-identical for any worker count. The
// experiment entry points share one TraceCache (ExperimentOptions.Trace),
// simulating each (seed, scenario, load, carrier-sense) operating point
// exactly once per process however many figures post-process it.
//
// Chip streams are bit-packed end to end (ChipWords): channel synthesis
// writes 64 noise chips per RNG word, copies dominant signals
// word-at-a-time and applies chip errors by geometric skip-sampling — cost
// proportional to errors, not chips — and the receiver's sync scan and
// despreader consume the same packed words with no per-reception repack.
//
// Workloads are pluggable through SimConfig.Scenario: the default Scenario
// is the paper's all-Poisson traffic, and internal/scenario also ships
// bursty on/off sources (BurstyTrafficScenario) and periodic or reactive
// jammer nodes (PeriodicJammerScenario, ReactiveJammerScenario) motivated
// by the anti-jamming literature; ScenarioByName resolves the CLI names.
// New models implement TrafficModel. See DESIGN.md for the engine's
// architecture and examples/jammer for a complete adversarial-workload
// program.
//
// Recovery schemes are pluggable the same way: RecoveryScheme scores an
// outcome trace under one recovery discipline, and the registry
// (RegisterRecoveryScheme, RecoverySchemeByName) feeds every delivery
// figure. Besides the paper's three (SchemePacketCRC, SchemeFragCRC,
// SchemePPR) the registry ships convolutional block FEC with and without
// interleaving (SchemeFEC, SchemeFECIL) and a hint-directed hybrid
// (SchemePPRFEC).
//
// # Experiments, Datasets and the Runner
//
// The evaluation itself is the third registry: every figure and table is
// a named Experiment (RegisterExperiment, ExperimentByName,
// ExperimentNames, Experiments) whose Run(ctx, options) produces the one
// typed Dataset model — labelled series of points with units, percentile
// bands and metadata — that cmd/pprsim renders generically as text, JSON
// or CSV. An ExperimentRunner executes a set of experiments concurrently
// on a bounded worker pool, sharing one TraceCache across all of them and
// streaming RunnerProgress callbacks; context cancellation is threaded
// down through simulation windows and closed-loop cells, so deadlines
// abort promptly. The typed entry points (Fig3 … Fig17, Table2, Summary)
// remain as thin wrappers for callers that want the figure-specific
// structs.
//
// # Quick start
//
//	f := ppr.NewFrame(dst, src, seq, payload)
//	chips := f.AirChips()                    // what goes on the air
//	rx := ppr.NewReceiver(ppr.HardDecoder{}) // SoftPHY receiver
//	for _, rec := range rx.Receive(chips) {  // partial packets + hints
//		labels := ppr.DefaultThreshold().LabelAll(rec.MissingPrefix, rec.Decisions)
//		_ = labels // good/bad per symbol; feed to PP-ARQ
//	}
//
// See examples/ for complete programs.
package ppr

import (
	"ppr/internal/bitutil"
	"ppr/internal/core/chunkdp"
	"ppr/internal/core/feedback"
	"ppr/internal/core/pparq"
	"ppr/internal/core/recovery"
	"ppr/internal/core/runlen"
	"ppr/internal/core/softphy"
	"ppr/internal/experiments"
	"ppr/internal/frame"
	"ppr/internal/jam"
	"ppr/internal/linkserv"
	"ppr/internal/modem"
	"ppr/internal/netsim"
	"ppr/internal/obs"
	"ppr/internal/phy"
	"ppr/internal/radio"
	"ppr/internal/scenario"
	"ppr/internal/schemes"
	"ppr/internal/sim"
	"ppr/internal/testbed"
	"ppr/internal/topo"
	"ppr/internal/wire"
)

// ---- Framing & postamble decoding (Sec. 4) ----

type (
	// Frame is one link-layer packet: header, payload, and (on the air)
	// the preamble/postamble structure of Fig. 2.
	Frame = frame.Frame
	// Header carries length, destination, source and sequence number; the
	// trailer replicates it so postamble-synchronized receivers can
	// recover packet bounds.
	Header = frame.Header
	// Receiver synchronizes on preambles and postambles and despreads
	// payloads into hint-annotated symbol decisions.
	Receiver = frame.Receiver
	// Reception is the receiver's view of one acquired packet: decisions,
	// hints, rollback truncation and CRC verdict.
	Reception = frame.Reception
	// SyncKind says which end of the packet acquisition locked onto.
	SyncKind = frame.SyncKind
	// ChipWords is the bit-packed on-air chip stream: 64 chips per word,
	// MSB-first. Frame.AirChips produces it, the channel synthesizer
	// operates on it word-at-a-time, and Receiver.Receive consumes it
	// directly — byte-per-chip slices exist only at the sample-level modem
	// boundary (NewChipBuffer packs them).
	ChipWords = bitutil.ChipWords
)

// NewChipBuffer packs a byte-per-chip stream (any nonzero byte is chip
// value 1) into the receiver's native representation — the adapter for
// chips demodulated at the sample-level modem boundary.
func NewChipBuffer(chips []byte) *ChipWords { return frame.NewChipBuffer(chips) }

// Sync kinds.
const (
	SyncPreamble  = frame.SyncPreamble
	SyncPostamble = frame.SyncPostamble
)

// MaxPayload is the largest payload a frame carries (1500 bytes, the
// packet size the paper's capacity experiments emulate).
const MaxPayload = frame.MaxPayload

// NewFrame builds a link-layer frame; it panics if payload exceeds
// MaxPayload.
func NewFrame(dst, src, seq uint16, payload []byte) Frame {
	return frame.New(dst, src, seq, payload)
}

// NewReceiver returns a PPR receiver with postamble decoding enabled and a
// one-packet rollback buffer, using the given SoftPHY decoder.
func NewReceiver(dec Decoder) *Receiver { return frame.NewReceiver(dec) }

// AirBytes returns a frame's on-air size in bytes for a given payload
// length, sync patterns and trailer included.
func AirBytes(payloadLen int) int { return frame.AirBytes(payloadLen) }

// ---- SoftPHY (Sec. 3) ----

type (
	// Decision is one decoded symbol with its SoftPHY confidence hint
	// (lower = more confident, per the monotonicity contract of Sec. 3.3).
	Decision = phy.Decision
	// Decoder despreads codeword observations into Decisions.
	Decoder = phy.Decoder
	// HardDecoder hints with the Hamming distance of hard-decision
	// decoding — the variant the paper implements and evaluates.
	HardDecoder = phy.HardDecoder
	// SoftDecoder hints with the soft-decision correlation metric (Eq. 1).
	SoftDecoder = phy.SoftDecoder
	// MatchedFilterDecoder hints with the raw matched-filter output.
	MatchedFilterDecoder = phy.MatchedFilterDecoder
	// Label is the link layer's good/bad verdict on a symbol.
	Label = softphy.Label
	// Threshold is the static η rule: hint ≤ η ⇒ good.
	Threshold = softphy.Threshold
	// Adaptive learns η online from verified outcomes, assuming only hint
	// monotonicity (Sec. 3.3).
	Adaptive = softphy.Adaptive
	// Labeler is anything that labels a decision stream (Threshold or
	// *Adaptive).
	Labeler = softphy.Labeler
)

// Labels.
const (
	Good = softphy.Good
	Bad  = softphy.Bad
)

// DefaultEta is the paper's η = 6 Hamming-distance threshold.
const DefaultEta = softphy.DefaultEta

// DefaultThreshold returns the paper's operating threshold rule.
func DefaultThreshold() Threshold { return softphy.Threshold{Eta: softphy.DefaultEta} }

// NewAdaptiveThreshold returns an online-adapting labeler with the given
// miss/false-alarm costs, starting from initialEta.
func NewAdaptiveThreshold(missCost, faCost, initialEta float64) *Adaptive {
	return softphy.NewAdaptive(missCost, faCost, initialEta)
}

// ---- PP-ARQ (Sec. 5) ----

type (
	// Runs is the run-length representation (Expr. 2) of a labelled packet.
	Runs = runlen.Runs
	// Chunk is one contiguous retransmission request produced by the
	// dynamic program.
	Chunk = chunkdp.Chunk
	// ChunkPlan is the optimal chunking and its cost-model value.
	ChunkPlan = chunkdp.Plan
	// Request is the receiver's feedback packet: chunks to resend plus
	// per-good-segment checksums.
	Request = feedback.Request
	// Response is the sender's partial retransmission.
	Response = feedback.Response
	// Assembler reassembles a packet across PP-ARQ rounds on the receiver.
	Assembler = recovery.Assembler
	// ARQSender drives the full streaming-ACK PP-ARQ protocol over a pair
	// of links.
	ARQSender = pparq.Sender
	// ARQConfig tunes PP-ARQ.
	ARQConfig = pparq.Config
	// ARQStats accounts every byte a transfer put on the air.
	ARQStats = pparq.Stats
	// Link is one direction of a wireless hop as PP-ARQ sees it.
	Link = pparq.Link
)

// RunsFromLabels compresses per-symbol labels into the run-length
// representation.
func RunsFromLabels(labels []Label) Runs { return runlen.FromLabels(labels) }

// OptimalChunks runs the Eq. 4/5 dynamic program over a labelled packet of
// numSymbols 4-bit symbols, returning the minimum-overhead retransmission
// request set.
func OptimalChunks(rs Runs, numSymbols int) ChunkPlan {
	return chunkdp.Optimal(rs, chunkdp.DefaultParams(numSymbols))
}

// NewAssembler returns a receiver-side assembler for a packet of
// numSymbols symbols.
func NewAssembler(numSymbols int) *Assembler { return recovery.New(numSymbols) }

// NewARQSender builds a PP-ARQ sender for the src→dst hop: fwd carries
// data and retransmissions to the receiver, rev carries feedback back.
// Use Transfer for single packets, or TransferWindow for the streaming
// mode of Sec. 5.2 that concatenates the window's feedback and
// retransmissions into one control frame per round.
func NewARQSender(fwd, rev Link, src, dst uint16, cfg ARQConfig) *ARQSender {
	return pparq.NewSender(fwd, rev, src, dst, cfg)
}

// ---- Radio, testbed and simulation substrates ----

type (
	// ChannelParams is the propagation environment (path loss, shadowing,
	// noise floor, carrier-sense threshold).
	ChannelParams = radio.Params
	// Position is a node location in feet.
	Position = radio.Position
	// Testbed is the 27-node, 9-room deployment of Fig. 7.
	Testbed = testbed.Testbed
	// SimConfig describes one simulated run (load, packet size, duration,
	// carrier sense).
	SimConfig = sim.Config
	// Transmission is one scheduled packet on the air.
	Transmission = sim.Transmission
	// Outcome is the receiver pipeline's result for one transmission at
	// one receiver under one variant.
	Outcome = sim.Outcome
	// SimVariant selects a receiver configuration to evaluate.
	SimVariant = sim.Variant
	// Modulator and Demodulator are the sample-level MSK transceiver.
	Modulator = modem.Modulator
	// Demodulator recovers chips (and timing) from MSK baseband samples.
	Demodulator = modem.Demodulator
)

// DefaultChannelParams returns the simulated indoor environment used by
// all experiments.
func DefaultChannelParams() ChannelParams { return radio.DefaultParams() }

// NewTestbed builds the deterministic 23-sender / 4-receiver deployment.
func NewTestbed(params ChannelParams, seed uint64) *Testbed {
	return testbed.New(params, seed)
}

// RunSim schedules traffic and delivers it through every receiver,
// returning the transmissions and per-variant outcomes. Delivery runs on
// cfg.Workers goroutines (0 = all cores) with results independent of the
// worker count.
func RunSim(cfg SimConfig, variants []SimVariant) ([]*Transmission, []Outcome) {
	return sim.Run(cfg, variants)
}

// ---- Closed-loop network simulation (internal/netsim) ----

type (
	// ClosedLoopConfig describes one closed-loop run: concurrent flows whose
	// link-layer state machines (PP-ARQ or a status-quo ARQ) contend for the
	// shared channel — feedback and retransmissions occupy airtime and
	// collide like any other transmission.
	ClosedLoopConfig = netsim.Config
	// ClosedLoopFlow is one sender→receiver flow.
	ClosedLoopFlow = netsim.Flow
	// ClosedLoopJammer overlays a jam strategy (JamStrategyByName) on a
	// node as a channel event source that ignores carrier sense.
	ClosedLoopJammer = netsim.JammerNode
	// ClosedLoopResult is a run's per-flow and channel-wide accounting.
	ClosedLoopResult = netsim.Result
	// ClosedLoopFlowResult is one flow's delivery and airtime accounting.
	ClosedLoopFlowResult = netsim.FlowResult
	// ClosedLoopLinkLayer is a pluggable reliable-transfer state machine;
	// implement it and RegisterLinkLayer to compare a new protocol in Fig 17.
	ClosedLoopLinkLayer = netsim.LinkLayer
	// LinkLayerConfig carries the per-flow knobs a link-layer maker receives.
	LinkLayerConfig = netsim.LinkConfig
	// LinkLayerMaker builds a link layer over one flow's links.
	LinkLayerMaker = netsim.Maker
	// LinkAirStats aggregates a link layer's byte accounting.
	LinkAirStats = netsim.LinkStats
)

// RunClosedLoop executes one closed-loop network simulation. It is a pure
// function of its configuration: results are bit-identical run to run and
// do not depend on anything outside cfg.
func RunClosedLoop(cfg ClosedLoopConfig) (ClosedLoopResult, error) { return netsim.Run(cfg) }

// RegisterLinkLayer adds a closed-loop link layer to the registry; it then
// appears in LinkLayerNames and can be named in ClosedLoopConfig.LinkLayer.
// Call from init.
func RegisterLinkLayer(name string, mk LinkLayerMaker) { netsim.RegisterLinkLayer(name, mk) }

// LinkLayerNames lists the registered closed-loop link layer slugs, sorted.
func LinkLayerNames() []string { return netsim.LinkLayerNames() }

// LinkLayers lists the registered link layer slugs in presentation order
// (PP-ARQ first, then the status-quo baselines).
func LinkLayers() []string { return netsim.LinkLayers() }

// ---- Declarative topologies (internal/topo) ----

type (
	// NetworkTopology is the deployment interface the closed-loop engine
	// runs on: node count, pairwise link budgets, propagation environment.
	// Both the paper's Testbed and the declarative Topology satisfy it.
	NetworkTopology = netsim.Topology
	// Topology is a declarative deployment: named nodes at positions with
	// a symmetric (unless overridden) link-budget matrix.
	Topology = topo.Topology
	// TopologyNode is one named node of a Topology.
	TopologyNode = topo.Node
	// TopologyBuilder accumulates named nodes and link-budget overrides
	// into a Topology.
	TopologyBuilder = topo.Builder
)

// NewTopologyBuilder starts a declarative topology; the seed keys every
// link's shadowing on the node pair, so budgets are stable as nodes are
// added.
func NewTopologyBuilder(params ChannelParams, seed uint64) *TopologyBuilder {
	return topo.NewBuilder(params, seed)
}

// GridTopology lays out cols×rows nodes on a uniform grid.
func GridTopology(cols, rows int, spacingFeet float64, params ChannelParams, seed uint64) (*Topology, error) {
	return topo.Grid(cols, rows, spacingFeet, params, seed)
}

// RandomTopology scatters n nodes uniformly over a field.
func RandomTopology(n int, widthFeet, heightFeet float64, params ChannelParams, seed uint64) (*Topology, error) {
	return topo.Random(n, widthFeet, heightFeet, params, seed)
}

// CellGridTopology builds the city-scale layout: a grid of dense node
// clusters ("cells") whose spacing controls whether the engine sees one
// interference domain or many.
func CellGridTopology(cellsX, cellsY, nodesPerCell int, cellSpacingFeet, cellRadiusFeet float64, params ChannelParams, seed uint64) (*Topology, error) {
	return topo.CellGrid(cellsX, cellsY, nodesPerCell, cellSpacingFeet, cellRadiusFeet, params, seed)
}

// AudibilityFloorDBm returns the received-power floor below which the
// engine prunes a link entirely — the edge threshold of the audibility
// graph that Topology.Domains partitions.
func AudibilityFloorDBm(p ChannelParams) float64 { return netsim.AudibilityFloorDBm(p) }

// ---- Traffic scenarios ----

type (
	// Scenario assigns each simulated sender a traffic model or a jam
	// strategy; plug one into SimConfig.Scenario or ExperimentOptions.Scenario.
	Scenario = scenario.Scenario
	// TrafficModel generates one sender's packet arrival process; implement
	// it to add a new workload.
	TrafficModel = scenario.TrafficModel
	// ScenarioNode is one sender's behaviour under a scenario.
	ScenarioNode = scenario.Node
	// BurstyModel is the Markov-modulated on/off traffic source.
	BurstyModel = scenario.Bursty
	// TraceCache memoizes simulation traces by operating point.
	TraceCache = experiments.TraceCache
)

// PoissonScenario returns the paper's workload: every sender a Poisson
// source at the configured offered load.
func PoissonScenario() Scenario { return scenario.Poisson() }

// BurstyTrafficScenario returns the all-bursty on/off workload with the
// same long-run offered load as Poisson.
func BurstyTrafficScenario() Scenario { return scenario.BurstyTraffic() }

// PeriodicJammerScenario returns Poisson traffic with sender 0 replaced by
// a periodic jammer.
func PeriodicJammerScenario() Scenario { return scenario.PeriodicJammer() }

// ReactiveJammerScenario returns Poisson traffic with sender 0 replaced by
// a sense-then-jam jammer.
func ReactiveJammerScenario() Scenario { return scenario.ReactiveJammer() }

// ScenarioByName resolves a scenario by CLI name; ScenarioNames lists them.
func ScenarioByName(name string) (Scenario, error) { return scenario.ByName(name) }

// ScenarioNames lists the registered scenario names.
func ScenarioNames() []string { return scenario.Names() }

// ---- Adversarial jamming (internal/jam) ----

type (
	// JamStrategy is one named, composable adversary: a factory for the
	// per-run emitter that decides when and where to jam. Implement it and
	// RegisterJamStrategy to add an adversary every scenario ("jam-<name>"),
	// the resilience experiment and the pprsim -jammer flag can select.
	JamStrategy = jam.Strategy
	// JamEmitter is one run's live adversary instance.
	JamEmitter = jam.Emitter
	// JamParams fixes the air-interface constants an emitter plans against.
	JamParams = jam.Params
	// JamObservation is what the adversary senses at a poll: the current
	// chip clock, carrier state and overheard transmissions.
	JamObservation = jam.Observation
	// JamBurst is an emitter's decision: whether to fire, how long, where.
	JamBurst = jam.Burst
	// JamZone bounds a geographic jamming region for the InZone combinator.
	JamZone = jam.Zone
	// JamRect and JamCircle are the built-in zone shapes.
	JamRect   = jam.Rect
	JamCircle = jam.Circle
)

// RegisterJamStrategy adds a jam strategy under name; like scheme and
// scenario registration it is meant for init-time use.
func RegisterJamStrategy(name string, mk func() JamStrategy) { jam.Register(name, mk) }

// JamStrategyByName resolves a registered strategy; JamStrategyNames lists
// the registered names.
func JamStrategyByName(name string) (JamStrategy, error) { return jam.ByName(name) }

// JamStrategyNames lists the registered jam strategy names, sorted.
func JamStrategyNames() []string { return jam.Names() }

// JamDutyCycle gates inner through a fixed on/off airtime cycle.
func JamDutyCycle(inner JamStrategy, onChips, offChips int64) JamStrategy {
	return jam.DutyCycle(inner, onChips, offChips)
}

// JamMarkov gates inner through a two-state Markov on/off process.
func JamMarkov(inner JamStrategy, pStart, pStay, pRecover float64) JamStrategy {
	return jam.Markov(inner, pStart, pStay, pRecover)
}

// JamInZone restricts inner to transmissions it overhears from inside z.
func JamInZone(inner JamStrategy, z JamZone) JamStrategy { return jam.InZone(inner, z) }

// JamTarget restricts inner to the listed victim senders.
func JamTarget(inner JamStrategy, victims ...int) JamStrategy {
	return jam.Target(inner, victims...)
}

// WithJamStrategyScenario overlays a registry-built jammer on sender 0 of
// base: the strategy drives the jammer's open-loop timeline exactly as it
// drives closed-loop jammer nodes. A zero burstBytes keeps the default
// burst length. The registry also carries one prebuilt "jam-<name>"
// scenario per registered strategy.
func WithJamStrategyScenario(name string, base Scenario, s JamStrategy, burstBytes int) Scenario {
	return scenario.WithJamStrategy(name, base, s, burstBytes)
}

// ---- Experiment entry points (Sec. 7) ----

type (
	// ExperimentOptions seeds and scales the reproduction runs.
	ExperimentOptions = experiments.Options
	// Experiment is one named, registry-backed paper reproduction; its Run
	// produces a Dataset. Implement it and RegisterExperiment to add an
	// artifact every CLI invocation and Runner sweep can resolve by name.
	Experiment = experiments.Experiment
	// Dataset is the uniform experiment result: labelled series of points
	// with units, percentile bands and metadata.
	Dataset = experiments.Dataset
	// DatasetSeries is one labelled series within a Dataset.
	DatasetSeries = experiments.Series
	// DatasetPoint is one data point of a series.
	DatasetPoint = experiments.Point
	// ExperimentRunner executes a set of experiments concurrently on a
	// bounded worker pool, sharing one trace cache.
	ExperimentRunner = experiments.Runner
	// RunnerProgress is one per-experiment progress notification.
	RunnerProgress = experiments.Progress
	// DeliveryFigure is the output shape of Figs. 8–10.
	DeliveryFigure = experiments.DeliveryFigure
	// DeliveryCurve is one per-link CDF within a delivery figure.
	DeliveryCurve = experiments.DeliveryCurve
	// HintCurve is one conditional hint CDF of Fig. 3.
	HintCurve = experiments.HintCurve
	// CollisionPoint is one codeword of a Fig. 13 timeline.
	CollisionPoint = experiments.CollisionPoint
	// CollisionResult is the Fig. 13 output.
	CollisionResult = experiments.CollisionResult
	// Fig16Result is the PP-ARQ retransmission-size distribution.
	Fig16Result = experiments.Fig16Result
	// Fig17Result is the closed-loop aggregate-throughput comparison.
	Fig17Result = experiments.Fig17Result
	// SummaryRow is one measured-vs-paper headline comparison.
	SummaryRow = experiments.SummaryRow
	// DiversityResult compares single-receiver delivery against
	// multi-receiver min-hint combining (the Sec. 8.4 extension).
	DiversityResult = experiments.DiversityResult
	// MeshResult is the city-scale mesh experiment over the spatially
	// sharded engine: per-flow throughput and fairness per link layer.
	MeshResult = experiments.MeshResult
	// MeshLayerResult is one link layer's curve within a MeshResult.
	MeshLayerResult = experiments.MeshLayerResult
	// ResilienceResult is the jamming-resilience sweep: link layers ×
	// jam strategies × jammer powers over a pinned adversarial topology.
	ResilienceResult = experiments.ResilienceResult
	// ResilienceCell is one (layer, strategy, power) operating point.
	ResilienceCell = experiments.ResilienceCell
)

// RunResilience runs the jamming-resilience sweep (see the resilience
// experiment): every link layer — the paper trio plus the SoftPHY-driven
// countermeasure layers — against every adversary of the panel
// (ExperimentOptions.Jammers; empty means the default panel) at every power.
func RunResilience(o ExperimentOptions) ResilienceResult { return experiments.Resilience(o) }

// ---- Recovery schemes (post-processing layer) ----

type (
	// RecoveryScheme scores one receive outcome under a recovery scheme;
	// implement it and RegisterRecoveryScheme to add a scheme every
	// delivery figure and the pprsim -schemes flag can select.
	RecoveryScheme = schemes.RecoveryScheme
	// SchemeParams fixes the per-scheme knobs (fragment size, η, FEC block
	// geometry).
	SchemeParams = schemes.Params
)

// Registered recovery schemes. The first three are the paper's comparison
// set; the FEC family post-processes the same traces as if the payload had
// been convolutionally coded (Sec. 8.3), and SchemePPRFEC repairs only the
// blocks SoftPHY hints flag (the ZipTx/Maranello hybrid direction).
var (
	SchemePacketCRC RecoveryScheme = schemes.PacketCRC{}
	SchemeFragCRC   RecoveryScheme = schemes.FragCRC{}
	SchemePPR       RecoveryScheme = schemes.PPR{}
	SchemeFEC       RecoveryScheme = schemes.BlockFEC{}
	SchemeFECIL     RecoveryScheme = schemes.BlockFEC{Interleaved: true}
	SchemePPRFEC    RecoveryScheme = schemes.HybridPPRFEC{}
)

// DefaultSchemeParams returns the paper's operating point (50-byte
// fragments, η = 6, default FEC geometry).
func DefaultSchemeParams() SchemeParams { return schemes.DefaultParams() }

// RegisterRecoveryScheme adds a scheme to the registry; it then appears in
// every delivery figure and in RecoverySchemeNames. Call from init.
func RegisterRecoveryScheme(s RecoveryScheme) { schemes.Register(s) }

// RecoverySchemeByName resolves a scheme by its registry slug (e.g.
// "packet-crc") or display name; RecoverySchemeNames lists the slugs.
func RecoverySchemeByName(name string) (RecoveryScheme, error) { return schemes.ByName(name) }

// RecoverySchemeNames lists the registered scheme slugs, sorted.
func RecoverySchemeNames() []string { return schemes.Names() }

// RecoverySchemes returns every registered scheme in presentation order.
func RecoverySchemes() []RecoveryScheme { return schemes.All() }

// RegisterExperiment adds an experiment to the registry; it then resolves
// by name in ExperimentByName, the pprsim -exp flag and Runner sweeps.
// Call from init.
func RegisterExperiment(e Experiment) { experiments.Register(e) }

// ExperimentByName resolves an experiment by its registry name ("fig8",
// "table2", ...); ExperimentNames lists the names sorted.
func ExperimentByName(name string) (Experiment, error) { return experiments.ByName(name) }

// ExperimentNames lists the registered experiment names, sorted.
func ExperimentNames() []string { return experiments.Names() }

// Experiments returns every registered experiment in presentation order —
// the order `pprsim -exp all` runs.
func Experiments() []Experiment { return experiments.All() }

// Experiment entry points; each regenerates one table or figure of the
// paper's evaluation section — thin typed wrappers over the same code the
// registry runs. See EXPERIMENTS.md for paper-vs-measured.
var (
	Fig3  = experiments.Fig3
	Fig8  = experiments.Fig8
	Fig9  = experiments.Fig9
	Fig10 = experiments.Fig10
	Fig11 = experiments.Fig11
	Fig12 = experiments.Fig12
	Fig13 = experiments.Fig13
	Fig14 = experiments.Fig14
	Fig15 = experiments.Fig15
	Fig16 = experiments.Fig16
	// Fig17 runs the closed-loop network simulator: concurrent PP-ARQ,
	// fragmented-CRC and packet-CRC ARQ flows contending for the channel.
	Fig17   = experiments.Fig17
	Table2  = experiments.Table2
	Summary = experiments.Summary
	// Diversity evaluates the multi-receiver combining extension.
	Diversity = experiments.Diversity
)

// ---- Observability (internal/obs) ----

type (
	// MetricsRegistry is the process metrics registry: per-worker-sharded
	// atomic counters, max-merged gauges and log-bucketed histograms. The
	// nil registry is the disabled state — every handle it returns no-ops
	// at the cost of a nil check.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a deterministic point-in-time merge of a registry,
	// serializable as schema'd ppr-metrics/v1 JSON.
	MetricsSnapshot = obs.Snapshot
	// TimelineTracer records a discrete-event timeline in Chrome trace
	// format, loadable in Perfetto. Hand one to ClosedLoopConfig.Tracer (or
	// experiments.Options.Tracer) to see transmissions, backoffs and
	// receptions laid out per interference domain.
	TimelineTracer = obs.Tracer
)

var (
	// EnableMetrics turns on process-wide metrics collection (idempotent)
	// and returns the default registry. Instrumented hot paths stay
	// allocation-free either way; disabled they cost only a nil check.
	EnableMetrics = obs.Enable
	// DefaultMetrics returns the current default registry (nil = disabled).
	DefaultMetrics = obs.Default
	// NewTimelineTracer returns an empty timeline tracer.
	NewTimelineTracer = obs.NewTracer
)

// ---- Link serving (internal/wire, internal/linkserv) ----

type (
	// LinkServer serves PP-ARQ flows over real byte streams: one session
	// per flow drives the protocol sender over TCP or in-memory pipe
	// connections, with bounded queues, deadlines, flow shedding and
	// graceful drain. See cmd/pprd for the long-running daemon.
	LinkServer = linkserv.Server
	// LinkServerConfig tunes the server's robustness machinery: flow
	// limits, queue bounds, deadlines, backoff and observability.
	LinkServerConfig = linkserv.Config
	// LinkClient is the client side of a served link: it acts as the
	// remote radio head, synthesizing and receiving chip streams for the
	// server's protocol exchanges.
	LinkClient = linkserv.Client
	// LinkClientConfig tunes the client, including the Impair hook that
	// injects channel noise into the chip stream.
	LinkClientConfig = linkserv.ClientConfig
	// LinkFlow is one open PP-ARQ flow on a client connection.
	LinkFlow = linkserv.Flow
	// WireFaultSpec configures deterministic transport fault injection
	// (drop, duplicate, corrupt, truncate, reorder, delay, hard-close).
	WireFaultSpec = wire.FaultSpec
)

var (
	// NewLinkServer returns a link server with the given configuration.
	NewLinkServer = linkserv.NewServer
	// NewLinkClient wraps an established connection as a link client.
	NewLinkClient = linkserv.NewClient
	// DialLink connects to a link server and returns a client.
	DialLink = linkserv.Dial
	// NewWireFaultConn wraps a connection with a deterministic transport
	// fault injector driven by the given RNG.
	NewWireFaultConn = wire.NewFaultConn
)
