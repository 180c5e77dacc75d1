package experiments

import (
	"context"
	"fmt"

	"ppr/internal/jam"
	"ppr/internal/netsim"
	"ppr/internal/radio"
	"ppr/internal/topo"
)

// The resilience experiment sweeps link layer × jammer strategy × jammer
// power over a fixed adversarial deployment and reports each cell's
// delivered throughput, jam exposure and airtime accounting. It is the
// result surface past the paper's evaluation: the paper argues partial
// packets matter most when the channel is hostile; this measures it, layer
// by layer, against the composable adversaries of internal/jam — including
// the SoftPHY-driven countermeasure layers hopping, falling back and
// hardening their feedback under fire.

// resiliencePanel is the default adversary panel: the two legacy timelines
// re-expressed as registered strategies, plus the three adaptive
// strategies the tentpole adds (preamble striker, time × frequency sweep,
// timing learner).
var resiliencePanel = []string{"periodic", "reactive", "preamble", "sweep", "learner"}

// resiliencePowers are the jammer link-budget offsets swept, in dB: the
// baseline adversary and one 9 dB hotter — enough to swing the jam-to-
// signal ratio at the victim receivers from -4 dB (partial corruption,
// PP-ARQ's regime) to +5 dB (burst-local annihilation).
var resiliencePowers = []float64{0, 9}

// resilienceChannels is the orthogonal channel count — >1 so the sweep
// strategy rakes frequency and the hop countermeasure has somewhere to go.
const resilienceChannels = 3

// resilienceBurstBytes sizes each jam burst (~18k chips of air).
const resilienceBurstBytes = 250

// resilienceLayers returns the compared link layers: the paper trio plus
// the three countermeasure layers (auxiliary registrations — they resolve
// by name but stay out of netsim.LinkLayers).
func resilienceLayers() []string {
	return append(netsim.LinkLayers(), "pp-arq-hop", "pp-arq-fallback", "pp-arq-chunk")
}

// jammerPanel resolves the configured adversary selection. It panics on an
// unknown name; CLI entry points validate against jam.Names() first.
func (o Options) jammerPanel() []string {
	if len(o.Jammers) == 0 {
		return resiliencePanel
	}
	for _, name := range o.Jammers {
		if _, err := jam.ByName(name); err != nil {
			panic(err)
		}
	}
	return o.Jammers
}

// resilienceDuration is the simulated airtime per cell.
func resilienceDuration(o Options) float64 {
	if o.Quick {
		return 0.3
	}
	return 1.5
}

// ResilienceTopology pins the experiment's adversarial geometry: two
// victim flows far enough apart to ignore each other, one jammer audible
// to all four victims. The link budgets are pinned, not path-loss derived,
// so the operating point is exact:
//
//   - each victim link runs at -60 dBm — comfortably decodable;
//   - the jammer reaches each victim receiver at -64 dBm, 4 dB under the
//     signal, so a jam burst corrupts symbols without necessarily killing
//     acquisition (the partial-packet regime); PowerDeltaDBm shifts this;
//   - the jammer hears each victim sender at -84 dBm — above the carrier-
//     sense threshold, so reactive/learning strategies observe the victims'
//     transmissions, while the victims' own CSMA only weakly couples to
//     the jammer.
func ResilienceTopology(o Options) (*topo.Topology, error) {
	b := topo.NewBuilder(radio.DefaultParams(), o.Seed^0xad7e)
	b.Node("jam", 0, 0)
	b.Node("s1", 1500, 0)
	b.Node("r1", 1520, 0)
	b.Node("s2", -1500, 0)
	b.Node("r2", -1520, 0)
	b.LinkDBm("s1", "r1", -60)
	b.LinkDBm("s2", "r2", -60)
	for _, v := range []string{"s1", "s2"} {
		b.LinkDBm("jam", v, -84)
	}
	for _, v := range []string{"r1", "r2"} {
		b.LinkDBm("jam", v, -64)
	}
	return b.Build()
}

// ResilienceCell is one (layer, strategy, power) operating point.
type ResilienceCell struct {
	// Layer, Strategy and PowerDeltaDBm name the cell.
	Layer, Strategy string
	PowerDeltaDBm   float64
	// AggregateKbps is the delivered application throughput summed over
	// both victim flows.
	AggregateKbps float64
	// JamFrames and JamChips measure the adversary's output: bursts fired
	// and chips of air occupied.
	JamFrames int
	JamChips  int64
	// Air sums the victims' byte accounting; Transfers and Failures their
	// transfer counts.
	Air                 netsim.LinkStats
	Transfers, Failures int
}

// ResilienceResult is the full sweep.
type ResilienceResult struct {
	// Layers, Strategies and Powers are the swept axes, in presentation
	// order; Cells is their cross product, layer-major then strategy-major.
	Layers, Strategies []string
	Powers             []float64
	Cells              []ResilienceCell
	// PacketBytes, DurationSec and NumChannels record the operating point.
	PacketBytes int
	DurationSec float64
	NumChannels int
}

// Cell returns the named cell.
func (r ResilienceResult) Cell(layer, strategy string, power float64) (ResilienceCell, bool) {
	for _, c := range r.Cells {
		if c.Layer == layer && c.Strategy == strategy && c.PowerDeltaDBm == power {
			return c, true
		}
	}
	return ResilienceCell{}, false
}

// Ratio returns layer a's aggregate throughput over layer b's for one
// (strategy, power) column, 0 when b delivered nothing.
func (r ResilienceResult) Ratio(a, b, strategy string, power float64) float64 {
	ca, oka := r.Cell(a, strategy, power)
	cb, okb := r.Cell(b, strategy, power)
	if !oka || !okb || cb.AggregateKbps == 0 {
		return 0
	}
	return ca.AggregateKbps / cb.AggregateKbps
}

// Resilience runs the jamming-resilience sweep: every link layer (paper
// trio + countermeasures) against every adversary of the panel at every
// power. Each (strategy, power) column keeps one seed across layers, so
// the comparison isolates the protocols; cells fan out over the bounded
// worker pool and results are bit-identical for every worker count.
func Resilience(o Options) ResilienceResult {
	res, err := resilienceCtx(context.Background(), o)
	must(err)
	return res
}

func resilienceCtx(ctx context.Context, o Options) (ResilienceResult, error) {
	if err := ctx.Err(); err != nil {
		return ResilienceResult{}, err
	}
	tp, err := ResilienceTopology(o)
	if err != nil {
		return ResilienceResult{}, fmt.Errorf("resilience: %w", err)
	}
	layers := resilienceLayers()
	panel := o.jammerPanel()
	res := ResilienceResult{
		Layers:      layers,
		Strategies:  panel,
		Powers:      resiliencePowers,
		PacketBytes: o.PacketBytes(),
		DurationSec: resilienceDuration(o),
		NumChannels: resilienceChannels,
	}

	type cell struct {
		layer, strat, power int
	}
	var cells []cell
	for li := range layers {
		for si := range panel {
			for pi := range resiliencePowers {
				cells = append(cells, cell{layer: li, strat: si, power: pi})
			}
		}
	}
	runs := make([]netsim.Result, len(cells))
	fanOut(len(cells), o.Workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if ctx.Err() != nil {
				return
			}
			c := cells[i]
			strat, err := jam.ByName(panel[c.strat])
			if err != nil {
				panic(err) // jammerPanel validated the names
			}
			// The seed is a function of the (strategy, power) column only:
			// every layer faces the same adversary phase and channel draws.
			col := c.strat*len(resiliencePowers) + c.power
			cfg := netsim.Config{
				Topo: tp,
				Flows: []netsim.Flow{
					{Sender: 1, Receiver: 2},
					{Sender: 3, Receiver: 4},
				},
				LinkLayer:    layers[c.layer],
				PacketBytes:  res.PacketBytes,
				DurationSec:  res.DurationSec,
				CarrierSense: true,
				NumChannels:  resilienceChannels,
				Seed:         o.Seed ^ (uint64(col+1) << 16),
				Workers:      o.Workers,
				Tracer:       o.Tracer,
				Jammers: []netsim.JammerNode{{
					Sender:        0,
					Strategy:      strat,
					BurstBytes:    resilienceBurstBytes,
					PowerDeltaDBm: resiliencePowers[c.power],
				}},
			}
			r, err := netsim.RunContext(ctx, cfg)
			if err != nil {
				if ctx.Err() != nil {
					return
				}
				panic(fmt.Sprintf("resilience: %v", err))
			}
			runs[i] = r
		}
	})
	if err := ctx.Err(); err != nil {
		return ResilienceResult{}, err
	}

	for i, c := range cells {
		r := runs[i]
		rc := ResilienceCell{
			Layer:         layers[c.layer],
			Strategy:      panel[c.strat],
			PowerDeltaDBm: resiliencePowers[c.power],
			AggregateKbps: r.AggregateKbps(),
			JamFrames:     r.JamFrames,
			JamChips:      r.JamChips,
		}
		for _, fr := range r.Flows {
			rc.Air.Merge(fr.Air)
			rc.Transfers += fr.Transfers
			rc.Failures += fr.Failures
		}
		res.Cells = append(res.Cells, rc)
	}
	return res, nil
}

// Dataset converts the sweep to the uniform model: one series per link
// layer, one point per (strategy, power) column (X = column index, Y =
// aggregate Kbit/s), with per-series totals as bands.
func (r ResilienceResult) Dataset() Dataset {
	d := Dataset{
		Experiment: "resilience",
		Title:      "Resilience: link layers vs composable jammers",
		Meta: map[string]string{
			"strategies":   fmt.Sprintf("%v", r.Strategies),
			"powers_db":    fmt.Sprintf("%v", r.Powers),
			"channels":     fmt.Sprintf("%d", r.NumChannels),
			"packet_bytes": fmt.Sprintf("%d", r.PacketBytes),
			"duration_sec": fmt.Sprintf("%g", r.DurationSec),
		},
	}
	for _, layer := range r.Layers {
		s := Series{Label: layer, Unit: "Kbit/s", XUnit: "strategy x power"}
		var kbps, jamChips, transfers, failures float64
		col := 0
		for _, strat := range r.Strategies {
			for _, pw := range r.Powers {
				c, ok := r.Cell(layer, strat, pw)
				if !ok {
					continue
				}
				s.Points = append(s.Points, Point{
					Label: fmt.Sprintf("%s +%gdB", strat, pw),
					X:     float64(col),
					Y:     c.AggregateKbps,
				})
				col++
				kbps += c.AggregateKbps
				jamChips += float64(c.JamChips)
				transfers += float64(c.Transfers)
				failures += float64(c.Failures)
			}
		}
		cols := col
		if cols == 0 {
			cols = 1
		}
		s.Bands = map[string]float64{
			"mean_kbps": kbps / float64(cols),
			"jam_chips": jamChips,
			"transfers": transfers,
			"failures":  failures,
		}
		d.Series = append(d.Series, s)
	}
	return d
}
