package experiments

import (
	"context"
	"fmt"

	"ppr/internal/netsim"
	"ppr/internal/scenario"
	"ppr/internal/stats"
	"ppr/internal/testbed"
)

// Fig17Curve is one link layer's closed-loop throughput distribution.
type Fig17Curve struct {
	// Layer is the link layer's registry slug ("pp-arq", ...).
	Layer string
	// PairKbps is the aggregate delivered application throughput of each
	// sender pair, in Fig17Result.Pairs order.
	PairKbps []float64
	// CDF is the distribution Fig. 17 plots.
	CDF []stats.CDFPoint
	// MedianKbps and MeanKbps summarize it.
	MedianKbps, MeanKbps float64
	// Air sums the byte accounting over every pair run — where the airtime
	// actually went (data vs partial retransmissions vs feedback).
	Air netsim.LinkStats
	// Transfers and Failures total the per-flow transfer counts.
	Transfers, Failures int
}

// Fig17Result reproduces Figure 17: aggregate end-to-end throughput of
// concurrent closed-loop flows on the shared channel, one CDF per link
// layer over the testbed's contending sender pairs.
type Fig17Result struct {
	// Pairs lists the sampled sender pairs, each flowing to its strongest
	// receiver.
	Pairs [][2]int
	// PacketBytes, DurationSec and CarrierSense record the operating point.
	PacketBytes  int
	DurationSec  float64
	CarrierSense bool
	// Scenario names the workload overlaid on the pair runs ("poisson" =
	// the paper's saturated pairs on an otherwise clear channel).
	Scenario string
	// Curves holds one entry per link layer, in netsim.LinkLayers order
	// (PP-ARQ, fragmented CRC, packet CRC).
	Curves []Fig17Curve
}

// MedianRatio returns the ratio of two layers' median aggregate throughput.
func (r Fig17Result) MedianRatio(a, b string) float64 {
	var am, bm float64
	for _, c := range r.Curves {
		if c.Layer == a {
			am = c.MedianKbps
		}
		if c.Layer == b {
			bm = c.MedianKbps
		}
	}
	if bm == 0 {
		return 0
	}
	return am / bm
}

// fig17Duration is the simulated airtime per pair run.
func fig17Duration(o Options) float64 {
	if o.Quick {
		return 0.8
	}
	return 4
}

// fig17Workload maps the named scenario onto the closed-loop run: scenario
// jammer nodes become netsim event sources overlaid on every pair run (and
// are excluded from pair sampling — a jammer is not a flow), and a
// non-Poisson traffic model paces the flows' transfer openings at the
// paper's high offered load instead of saturating them. The default
// Poisson workload keeps the paper's Fig. 17 setup: saturated pairs, no
// third parties. It panics on an unknown name; CLI entry points validate
// against scenario.Names() first.
func fig17Workload(o Options) (jammers []netsim.JammerNode, traffic scenario.TrafficModel, offeredBps float64) {
	sc, err := scenario.ByName(o.Scenario)
	if err != nil {
		panic(err)
	}
	for i := 0; i < testbed.NumSenders; i++ {
		node := sc.Node(i, testbed.NumSenders)
		if node.Jam != nil {
			jammers = append(jammers, netsim.JammerNode{Sender: i, Strategy: node.Jam, BurstBytes: node.PacketBytes})
			continue
		}
		if traffic == nil && node.Model != nil && node.Model.Name() != (scenario.PoissonModel{}).Name() {
			traffic = node.Model
		}
	}
	return jammers, traffic, LoadHigh
}

// fig17Pairs samples colliding sender pairs — the population Fig. 17's CDF
// is taken over. A pair qualifies when its concurrent transmissions
// actually damage each other:
//
//   - at least one direction is hidden (one sender cannot carrier-sense the
//     other), so CSMA cannot serialize the pair and their frames overlap;
//   - at least one flow's receiver hears the other sender within
//     severityDB of — or above — its intended signal, so the overlap
//     corrupts chips instead of disappearing under capture.
//
// This is exactly the situation the paper's collision anatomy dissects
// (Fig. 13) and PP-ARQ targets; pairs that carrier sense keeps apart, or
// whose mutual interference vanishes under capture, time-share the channel
// cleanly and tell nothing about recovery.
func fig17Pairs(o Options, tb *testbed.Testbed, n int, excluded map[int]bool) [][2]int {
	const severityDB = 12
	csDBm := tb.Params.CSThresholdDBm
	var candidates [][2]int
	for a := 0; a < testbed.NumSenders; a++ {
		if excluded[a] {
			continue
		}
		ra := tb.BestReceiver(a)
		for b := a + 1; b < testbed.NumSenders; b++ {
			if excluded[b] {
				continue
			}
			rb := tb.BestReceiver(b)
			hidden := tb.SenderGainDBm[a][b] < csDBm || tb.SenderGainDBm[b][a] < csDBm
			damaging := tb.GainDBm[b][ra] >= tb.GainDBm[a][ra]-severityDB ||
				tb.GainDBm[a][rb] >= tb.GainDBm[b][rb]-severityDB
			if hidden && damaging {
				candidates = append(candidates, [2]int{a, b})
			}
		}
	}
	rng := stats.NewRNG(o.Seed ^ 0xf17)
	perm := rng.Perm(len(candidates))
	if n > len(candidates) {
		n = len(candidates)
	}
	pairs := make([][2]int, n)
	for i := 0; i < n; i++ {
		pairs[i] = candidates[perm[i]]
	}
	return pairs
}

// Fig17 reproduces Figure 17 on the closed-loop simulator: for each sampled
// sender pair, both senders stream packets to their strongest receivers as
// paced by Options.Scenario (saturated under the default Poisson workload;
// scenario jammers attack every pair run — see fig17Workload) — that is, as
// fast as their link layer allows, sharing the channel with each other and
// with their own feedback and retransmission frames. Every (pair, layer)
// cell is an independent operating point, fanned out over the bounded
// worker pool; each cell's randomness derives from the cell's own stable
// coordinates, so results are bit-identical for every worker count.
func Fig17(o Options) Fig17Result {
	res, err := fig17Ctx(context.Background(), o)
	must(err)
	return res
}

func fig17Ctx(ctx context.Context, o Options) (Fig17Result, error) {
	tb := o.Bed()
	nPairs := 16
	if o.Quick {
		nPairs = 6
	}
	jammers, traffic, offeredBps := fig17Workload(o)
	excluded := map[int]bool{}
	for _, j := range jammers {
		excluded[j.Sender] = true
	}
	pairs := fig17Pairs(o, tb, nPairs, excluded)
	layers := netsim.LinkLayers()

	scenName := o.Scenario
	if scenName == "" {
		scenName = "poisson"
	}
	res := Fig17Result{
		Pairs:        pairs,
		PacketBytes:  o.PacketBytes(),
		DurationSec:  fig17Duration(o),
		CarrierSense: true,
		Scenario:     scenName,
	}

	type cell struct{ layer, pair int }
	cells := make([]cell, 0, len(layers)*len(pairs))
	for li := range layers {
		for pi := range pairs {
			cells = append(cells, cell{layer: li, pair: pi})
		}
	}
	runs := make([]netsim.Result, len(cells))
	fanOut(len(cells), o.Workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			// Each closed-loop cell is a cancellation unit: once ctx is
			// done, remaining cells are skipped and the in-flight ones
			// drain through netsim.RunContext's own ctx check.
			if ctx.Err() != nil {
				return
			}
			c := cells[i]
			pair := pairs[c.pair]
			cfg := netsim.Config{
				Topo: tb,
				Flows: []netsim.Flow{
					{Sender: pair[0], Receiver: testbed.NumSenders + tb.BestReceiver(pair[0])},
					{Sender: pair[1], Receiver: testbed.NumSenders + tb.BestReceiver(pair[1])},
				},
				LinkLayer:    layers[c.layer],
				PacketBytes:  res.PacketBytes,
				DurationSec:  res.DurationSec,
				CarrierSense: res.CarrierSense,
				Traffic:      traffic,
				OfferedBps:   offeredBps,
				Jammers:      jammers,
				// Every cell is its own operating point: the seed depends on
				// the pair but not the layer, so the three layers face the
				// same traffic phase and channel draws per pair.
				Seed:   o.Seed ^ (uint64(c.pair+1) << 16),
				Tracer: o.Tracer,
			}
			r, err := netsim.RunContext(ctx, cfg)
			if err != nil {
				if ctx.Err() != nil {
					return // cancelled mid-cell; the result is discarded
				}
				panic(fmt.Sprintf("fig17: %v", err))
			}
			runs[i] = r
		}
	})
	if err := ctx.Err(); err != nil {
		return Fig17Result{}, err
	}

	for li, layer := range layers {
		curve := Fig17Curve{Layer: layer}
		for pi := range pairs {
			r := runs[li*len(pairs)+pi]
			curve.PairKbps = append(curve.PairKbps, r.AggregateKbps())
			for _, fr := range r.Flows {
				curve.Air.Merge(fr.Air)
				curve.Transfers += fr.Transfers
				curve.Failures += fr.Failures
			}
		}
		curve.CDF = stats.CDF(curve.PairKbps)
		curve.MedianKbps = stats.MedianOrZero(curve.PairKbps)
		curve.MeanKbps = stats.Mean(curve.PairKbps)
		res.Curves = append(res.Curves, curve)
	}
	return res, nil
}
