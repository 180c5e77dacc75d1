// Package scenario pluggably describes *what the network is doing* during a
// simulated run, separated from how the engine synthesizes and decodes chips.
// A Scenario assigns each sender a traffic model or an internal/jam
// adversary strategy; the sim layer asks it for per-sender arrival streams
// and schedules the result through the MAC.
//
// The seed engine hard-coded the paper's workload — every node a Poisson
// source at the configured offered load (Sec. 7.2). That remains the default
// (Poisson), but measurement-driven anti-jamming work (Pelechrinis et al.;
// Richa et al.'s AntiJam) motivates workloads the paper never ran: bursty
// on/off sources whose collisions cluster in time, and jammer nodes that
// blast the channel periodically or in reaction to sensed activity. Those
// ship here as Bursty and as jam-strategy overlays (WithJamStrategy), and
// new models plug in by implementing TrafficModel and (for named CLI
// selection) registering a Scenario.
package scenario

import (
	"fmt"
	"sort"

	"ppr/internal/jam"
	"ppr/internal/mac"
	"ppr/internal/stats"
)

// Params carries the per-run knobs every traffic model scales itself by.
type Params struct {
	// OfferedBps is the configured per-node offered load in bits/second.
	OfferedBps float64
	// PacketBytes is the run's link-layer payload size.
	PacketBytes int
}

// Arrivals is a stream of packet release times in chips, non-decreasing.
// The scheduler pulls until an arrival falls at or beyond the run's end.
type Arrivals interface {
	Next() int64
}

// TrafficModel generates one sender's packet arrival process.
type TrafficModel interface {
	// Name labels the model in scenario listings.
	Name() string
	// Arrivals returns the sender's arrival stream. The rng is dedicated to
	// this sender and must be the model's only randomness source so runs
	// stay reproducible.
	Arrivals(p Params, rng *stats.RNG) Arrivals
}

// Node is one sender's behaviour under a scenario: a well-behaved traffic
// model, or a jammer strategy.
type Node struct {
	// Model generates the sender's arrivals.
	Model TrafficModel
	// PacketBytes overrides the run's payload size when > 0 (jam bursts are
	// sized by the jammer, not the workload).
	PacketBytes int
	// Jam, when non-nil, makes this node an adversary driven by the
	// composable strategy model (internal/jam) instead of a TrafficModel:
	// the scheduler polls the strategy's emitter on the shared chip-time
	// line and transmits the bursts it fires, ignoring carrier sense.
	// Model is ignored.
	Jam jam.Strategy
}

// Scenario assigns behaviour to every sender in a deployment.
type Scenario interface {
	// Name identifies the scenario (CLI -scenario values).
	Name() string
	// Node returns sender i's behaviour; numSenders is the deployment size
	// so scenarios can single out specific nodes (e.g. one jammer).
	Node(i, numSenders int) Node
}

// ---- Poisson (the paper's workload) ----

// PoissonModel is the paper's traffic source: Poisson packet arrivals at the
// configured offered load (Sec. 7.2).
type PoissonModel struct{}

// Name implements TrafficModel.
func (PoissonModel) Name() string { return "poisson" }

// Arrivals implements TrafficModel by wrapping the MAC-layer source.
func (PoissonModel) Arrivals(p Params, rng *stats.RNG) Arrivals {
	return mac.NewTrafficSource(p.OfferedBps, p.PacketBytes, rng)
}

// ---- Bursty on/off ----

// Bursty is a Markov-modulated on/off source: during exponentially
// distributed ON periods the node emits Poisson arrivals at PeakFactor times
// the configured load, and during OFF periods it is silent. With
// PeakFactor = (MeanOnChips+MeanOffChips)/MeanOnChips the long-run offered
// load matches the Poisson workload, but collisions cluster: several bursty
// nodes active at once overwhelm the channel, then it drains — the traffic
// shape interference-heavy deployments actually see.
type Bursty struct {
	// MeanOnChips and MeanOffChips are the exponential means of the ON and
	// OFF period lengths in chips.
	MeanOnChips, MeanOffChips float64
	// PeakFactor multiplies the configured load during ON periods; 0 means
	// the duty-cycle-compensating factor that preserves the mean load.
	PeakFactor float64
}

// DefaultBursty returns an on/off source with ~100 ms ON and ~300 ms OFF
// periods at 2 Mchip/s — a 25% duty cycle whose ON-period rate is 4× the
// configured load, preserving the long-run mean.
func DefaultBursty() Bursty {
	return Bursty{MeanOnChips: 200_000, MeanOffChips: 600_000}
}

// Name implements TrafficModel.
func (b Bursty) Name() string { return "bursty" }

// Arrivals implements TrafficModel. Non-positive period means fall back to
// the DefaultBursty value, so the zero value is usable rather than a
// degenerate stream that never terminates.
func (b Bursty) Arrivals(p Params, rng *stats.RNG) Arrivals {
	if b.MeanOnChips <= 0 {
		b.MeanOnChips = DefaultBursty().MeanOnChips
	}
	if b.MeanOffChips <= 0 {
		b.MeanOffChips = DefaultBursty().MeanOffChips
	}
	peak := b.PeakFactor
	if peak <= 0 {
		peak = (b.MeanOnChips + b.MeanOffChips) / b.MeanOnChips
	}
	pktBits := float64(p.PacketBytes * 8)
	pktPerSec := p.OfferedBps * peak / pktBits
	meanGap := float64(mac.ChipRateHz) / pktPerSec
	a := &burstyArrivals{
		rng:     rng,
		meanGap: meanGap,
		meanOn:  b.MeanOnChips,
		meanOff: b.MeanOffChips,
	}
	// Start at a random phase of the on/off cycle so nodes desynchronize.
	a.t = rng.Float64() * (b.MeanOnChips + b.MeanOffChips)
	a.onUntil = a.t + rng.ExpFloat64()*a.meanOn
	return a
}

type burstyArrivals struct {
	rng             *stats.RNG
	meanGap         float64 // mean inter-arrival during ON, chips
	meanOn, meanOff float64
	t, onUntil      float64
}

func (a *burstyArrivals) Next() int64 {
	a.t += a.rng.ExpFloat64() * a.meanGap
	for a.t > a.onUntil {
		// The candidate fell past the ON window: skip the OFF gap and open
		// the next ON period, re-drawing the arrival inside it.
		start := a.onUntil + a.rng.ExpFloat64()*a.meanOff
		a.onUntil = start + a.rng.ExpFloat64()*a.meanOn
		a.t = start + a.rng.ExpFloat64()*a.meanGap
	}
	return int64(a.t)
}

// ---- Scenario implementations ----

// uniform applies one Node template to every sender.
type uniform struct {
	name string
	node Node
}

func (u uniform) Name() string                { return u.name }
func (u uniform) Node(i, numSenders int) Node { return u.node }

// Poisson returns the default scenario: every sender a Poisson source at the
// configured load — the paper's workload.
func Poisson() Scenario {
	return uniform{name: "poisson", node: Node{Model: PoissonModel{}}}
}

// BurstyTraffic returns the all-bursty scenario: every sender an on/off
// source with the default duty cycle, same long-run load as Poisson.
func BurstyTraffic() Scenario {
	return uniform{name: "bursty", node: Node{Model: DefaultBursty()}}
}

// withJamStrategy overlays a jam.Strategy adversary on sender 0 of a base
// scenario.
type withJamStrategy struct {
	name       string
	base       Scenario
	strat      jam.Strategy
	burstBytes int
}

func (w withJamStrategy) Name() string { return w.name }

func (w withJamStrategy) Node(i, numSenders int) Node {
	if i == 0 {
		return Node{Jam: w.strat, PacketBytes: w.burstBytes}
	}
	return w.base.Node(i, numSenders)
}

// WithJamStrategy overlays a jam.Strategy adversary on sender 0 of base,
// jamming with burstBytes-sized frames (0 means JamBurstBytes); the
// remaining senders keep base's behaviour. The scenario is listed under
// name.
func WithJamStrategy(name string, base Scenario, strat jam.Strategy, burstBytes int) Scenario {
	if burstBytes <= 0 {
		burstBytes = JamBurstBytes
	}
	return withJamStrategy{name: name, base: base, strat: strat, burstBytes: burstBytes}
}

// mustJam resolves a registered jam strategy; the names used here are
// registered by internal/jam's init, so failure is a programming error.
func mustJam(name string) jam.Strategy {
	s, err := jam.ByName(name)
	if err != nil {
		panic(err)
	}
	return s
}

// Burst sizes of the stock jammers. JamBurstBytes is the default: the
// periodic jammer's 40-byte burst every ~25 ms is a ~10% duty cycle against
// full-size frames, and every other registered strategy but reactive uses
// it too. The reactive jammer sends 60-byte bursts.
const (
	JamBurstBytes      = 40
	ReactiveBurstBytes = 60
)

// PeriodicJammer returns Poisson traffic with sender 0 replaced by the
// registry's periodic jammer. Its schedules are pinned by frozen golden
// digests in internal/sim.
func PeriodicJammer() Scenario {
	return WithJamStrategy("periodic-jammer", Poisson(), mustJam("periodic"), JamBurstBytes)
}

// ReactiveJammer returns Poisson traffic with sender 0 replaced by the
// registry's reactive (sense-then-jam) jammer; golden-pinned like
// PeriodicJammer.
func ReactiveJammer() Scenario {
	return WithJamStrategy("reactive-jammer", Poisson(), mustJam("reactive"), ReactiveBurstBytes)
}

// registry maps CLI names to scenario constructors.
var registry = map[string]func() Scenario{
	"poisson":         Poisson,
	"bursty":          BurstyTraffic,
	"periodic-jammer": PeriodicJammer,
	"reactive-jammer": ReactiveJammer,
}

// Every registered jam strategy is also selectable as a scenario:
// "jam-<strategy>" overlays it on sender 0 of Poisson traffic.
func init() {
	for _, name := range jam.Names() {
		name := name
		burst := JamBurstBytes
		if name == "reactive" {
			burst = ReactiveBurstBytes
		}
		registry["jam-"+name] = func() Scenario {
			return WithJamStrategy("jam-"+name, Poisson(), mustJam(name), burst)
		}
	}
}

// ByName resolves a scenario by its registry name ("" means poisson).
func ByName(name string) (Scenario, error) {
	if name == "" {
		return Poisson(), nil
	}
	mk, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown scenario %q (available: %v)", name, Names())
	}
	return mk(), nil
}

// Names lists the registered scenario names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
