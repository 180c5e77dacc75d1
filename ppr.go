// Package ppr is a from-scratch Go implementation of PPR — Partial Packet
// Recovery for wireless networks (Jamieson & Balakrishnan, SIGCOMM 2007) —
// together with the complete 802.15.4 DSSS stack and testbed simulator it
// is evaluated on.
//
// The three contributions of the paper map onto this package as follows:
//
//   - SoftPHY (Sec. 3): the PHY annotates every decoded symbol with a
//     confidence hint. See the Decoder implementations (HardDecoder
//     reports Hamming distance; MatchedFilterDecoder the raw filter
//     output) and the link-layer threshold rules Threshold and Adaptive.
//
//   - Postamble decoding (Sec. 4): frames carry a trailer and postamble
//     replica of the header, and Receiver locks onto either end of a
//     packet, rolling back through its buffer when only the postamble
//     survived a collision. See Frame, Receiver and Reception.
//
//   - PP-ARQ (Sec. 5): the receiver labels symbol runs good/bad, chunks
//     the bad runs with the Eq. 4/5 dynamic program, and requests partial
//     retransmission with checksummed feedback. See OptimalChunks and
//     ARQSender.
//
// Around them sit the testbed simulator (NewTestbed, RunSim), the traffic
// scenarios it runs (ScenarioByName) and the experiment registry that
// regenerates every table and figure of the paper's evaluation
// (ExperimentByName, ExperimentRunner). The package's examples are the
// quick start. The command-line tools cover the rest: cmd/pprsim runs any
// experiment, scenario, recovery scheme or jammer; cmd/pprd serves PP-ARQ
// flows over TCP; cmd/pprlink drives one link. DESIGN.md describes the
// internal packages behind this facade.
package ppr

import (
	"ppr/internal/core/chunkdp"
	"ppr/internal/core/pparq"
	"ppr/internal/core/runlen"
	"ppr/internal/core/softphy"
	"ppr/internal/experiments"
	"ppr/internal/frame"
	"ppr/internal/phy"
	"ppr/internal/radio"
	"ppr/internal/scenario"
	"ppr/internal/schemes"
	"ppr/internal/sim"
	"ppr/internal/testbed"
)

// ---- Framing & postamble decoding (Sec. 4) ----

type (
	// Frame is one link-layer packet: header, payload, and (on the air)
	// the preamble/postamble structure of Fig. 2.
	Frame = frame.Frame
	// Receiver synchronizes on preambles and postambles and despreads
	// payloads into hint-annotated symbol decisions.
	Receiver = frame.Receiver
	// Reception is the receiver's view of one acquired packet: decisions,
	// hints, rollback truncation and CRC verdict.
	Reception = frame.Reception
)

// Sync kinds: which end of the packet acquisition locked onto.
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
	// Decoder despreads each codeword's 32 hard-decided chips into a symbol
	// decision with its SoftPHY confidence hint (lower = more confident,
	// per the monotonicity contract of Sec. 3.3).
	Decoder = phy.Decoder
	// HardDecoder hints with the Hamming distance of hard-decision
	// decoding — the variant the paper implements and evaluates.
	HardDecoder = phy.HardDecoder
	// MatchedFilterDecoder hints with the raw matched-filter output.
	MatchedFilterDecoder = phy.MatchedFilterDecoder
	// Label is the link layer's good/bad verdict on a symbol.
	Label = softphy.Label
	// Threshold is the static η rule: hint ≤ η ⇒ good.
	Threshold = softphy.Threshold
	// Adaptive learns η online from verified outcomes, assuming only hint
	// monotonicity (Sec. 3.3).
	Adaptive = softphy.Adaptive
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
	// ChunkPlan is the optimal chunking and its cost-model value.
	ChunkPlan = chunkdp.Plan
	// ARQSender drives the full streaming-ACK PP-ARQ protocol over a pair
	// of links.
	ARQSender = pparq.Sender
	// ARQConfig tunes PP-ARQ.
	ARQConfig = pparq.Config
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

// NewARQSender builds a PP-ARQ sender for the src→dst hop: fwd carries
// data and retransmissions to the receiver, rev carries feedback back.
// Use Transfer for single packets, or TransferWindow for the streaming
// mode of Sec. 5.2 that concatenates the window's feedback and
// retransmissions into one control frame per round.
func NewARQSender(fwd, rev Link, src, dst uint16, cfg ARQConfig) *ARQSender {
	return pparq.NewSender(fwd, rev, src, dst, cfg)
}

// ---- Testbed simulation (Sec. 7.2) ----

type (
	// ChannelParams is the propagation environment (path loss, shadowing,
	// noise floor, carrier-sense threshold).
	ChannelParams = radio.Params
	// Testbed is the 27-node, 9-room deployment of Fig. 7.
	Testbed = testbed.Testbed
	// SimConfig describes one simulated run (load, packet size, duration,
	// carrier sense, scenario, workers).
	SimConfig = sim.Config
	// Transmission is one scheduled packet on the air.
	Transmission = sim.Transmission
	// Outcome is the receiver pipeline's result for one transmission at
	// one receiver, without or with postamble decoding (Outcome.Variant).
	Outcome = sim.Outcome
	// Scenario assigns each simulated sender a traffic model or a jam
	// strategy; plug one into SimConfig.Scenario.
	Scenario = scenario.Scenario
)

// DefaultChannelParams returns the simulated indoor environment used by
// all experiments.
func DefaultChannelParams() ChannelParams { return radio.DefaultParams() }

// NewTestbed builds the deterministic 23-sender / 4-receiver deployment.
func NewTestbed(params ChannelParams, seed uint64) *Testbed {
	return testbed.New(params, seed)
}

// RunSim schedules traffic and delivers it through every receiver,
// returning the transmissions and the outcomes of both receiver variants.
// Delivery runs on cfg.Workers goroutines (0 = all cores) with results
// independent of the worker count.
func RunSim(cfg SimConfig) ([]*Transmission, []Outcome) {
	return sim.Run(cfg)
}

// PeriodicJammerScenario returns Poisson traffic with sender 0 replaced by
// a periodic jammer.
func PeriodicJammerScenario() Scenario { return scenario.PeriodicJammer() }

// ScenarioByName resolves a scenario by CLI name ("poisson", "bursty",
// "jam-<strategy>", ...).
func ScenarioByName(name string) (Scenario, error) { return scenario.ByName(name) }

// ScenarioNames lists the registered scenario names.
func ScenarioNames() []string { return scenario.Names() }

// ---- Recovery schemes and experiments (Sec. 7) ----

// RecoveryScheme scores one receive outcome under a recovery discipline.
type RecoveryScheme = schemes.RecoveryScheme

// The paper's whole-packet baseline and PPR itself; cmd/pprsim -schemes
// selects among every registered scheme.
var (
	SchemePacketCRC RecoveryScheme = schemes.PacketCRC{}
	SchemePPR       RecoveryScheme = schemes.PPR{}
)

type (
	// ExperimentOptions seeds and scales the reproduction runs.
	ExperimentOptions = experiments.Options
	// Experiment is one named, registry-backed paper reproduction; its Run
	// produces a Dataset of labelled series.
	Experiment = experiments.Experiment
	// ExperimentRunner executes a set of experiments concurrently on a
	// bounded worker pool, sharing one trace cache.
	ExperimentRunner = experiments.Runner
)

// ExperimentByName resolves an experiment by its registry name ("fig8",
// "table2", ...).
func ExperimentByName(name string) (Experiment, error) { return experiments.ByName(name) }

// ExperimentNames lists the registered experiment names, sorted.
func ExperimentNames() []string { return experiments.Names() }

// Experiments returns every registered experiment in presentation order —
// the order `pprsim -exp all` runs.
func Experiments() []Experiment { return experiments.All() }
