package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"time"

	"ppr/internal/experiments"
	"ppr/internal/schemes"
	"ppr/internal/stats"
)

// figures is the trace-driven workload behind Figs. 8–13 and 16: a cold
// trace fill at the paper's high-load operating point (13.8 Kbit/s/node,
// no carrier sense, 1500-byte packets, paper-scale airtime), then every
// registered recovery scheme scores the trace for both receiver variants.
// One op is one scheduled transmission, delivered and scored by every
// scheme; one request (the transfer_* latency) is one whole cycle.
//
// Each cycle is on a fresh testbed drawn from the seed (see cycles).
type figures struct {
	seed    uint64
	workers int
	// gainRuns is how many cycles pp_gain pools: a fixed prefix, so the
	// figure does not depend on how many cycles a noisy host completes.
	gainRuns int

	pooled []scored // the first gainRuns cycles
}

func (f *figures) opts(deployment int) experiments.Options {
	return experiments.Options{Seed: subSeed(f.seed, deployment), Workers: f.workers}
}

// subSeed derives the i-th input seed of a run from the benchmark seed.
func subSeed(seed uint64, i int) uint64 {
	return stats.NewRNG(seed).Derive(uint64(i)).Uint64()
}

// setup warms the receive and scoring paths with one quick-scale cycle.
func (f *figures) setup() error {
	warm := f.opts(0)
	warm.Quick = true
	c, err := f.cycle(warm, nil)
	if err == nil && c.txs == 0 {
		err = fmt.Errorf("figures: empty trace at seed %d", warm.Seed)
	}
	return err
}

// scored is one cycle's output: each scheme's delivered bytes per receiver
// variant, and the per-link accounting with postamble decoding.
type scored struct {
	txs       int
	durSec    float64
	delivered map[string][2]int
	links     map[string]map[experiments.LinkKey]experiments.LinkAccum
}

// cycle runs one cold fill and scores it under every scheme.
func (f *figures) cycle(o experiments.Options, sp *spans) (scored, error) {
	o.Cache = experiments.NewTraceCache()
	end := sp.begin("experiments.fill")
	tr, err := o.TraceContext(context.Background(), experiments.LoadHigh, false)
	end()
	if err != nil {
		return scored{}, err
	}
	p := experiments.DefaultSchemeParams()
	pp := tr.Post(o.Workers)
	out := scored{
		txs:       len(tr.Txs),
		durSec:    tr.Cfg.DurationSec,
		delivered: map[string][2]int{},
		links:     map[string]map[experiments.LinkKey]experiments.LinkAccum{},
	}
	for _, s := range schemes.All() {
		slug := schemes.Slug(s.Name())
		end := sp.begin("schemes." + slug + ".post")
		var d [2]int
		for variant := range d {
			acc := pp.PerLinkDelivery(variant, s, p)
			for _, a := range acc {
				d[variant] += a.DeliveredBytes
			}
			if variant == 1 {
				out.links[slug] = acc
			}
		}
		end()
		out.delivered[slug] = d
	}
	return out, nil
}

func (f *figures) run(deadline time.Time, sp *spans, sm *speedometer) (tally, error) {
	f.pooled = nil
	return cycles(deadline, f.gainRuns, sm, func(d int) (int, int, error) {
		end := sp.begin("cycle")
		c, err := f.cycle(f.opts(d), sp)
		end()
		if err != nil {
			return 0, 0, err
		}
		if d < f.gainRuns {
			f.pooled = append(f.pooled, c)
		}
		if err := pprAtLeastCRC(c.delivered); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: deployment %d: %v\n", d, err)
			return c.txs, 0, nil
		}
		return c.txs, c.txs, nil
	})
}

// pprAtLeastCRC checks that PPR delivers at least as much as packet CRC.
func pprAtLeastCRC(delivered map[string][2]int) error {
	ppr, crc := delivered[schemes.Slug(schemes.PPR{}.Name())], delivered[schemes.Slug(schemes.PacketCRC{}.Name())]
	for v := range ppr {
		if ppr[v] < crc[v] {
			return fmt.Errorf("figures: PPR delivered %d < packet CRC %d (variant %d)", ppr[v], crc[v], v)
		}
	}
	return nil
}

// medianLinkGain is the median over links of a's delivered bytes over
// b's, with postamble decoding, pooled over every deployment — the paper's
// "≈7x at high load" per-link comparison. A link where only a delivered
// counts as an infinite gain; a link where neither did is skipped.
//
// It is a median of per-link ratios, not a ratio of medians: packet CRC
// delivers whole packets, so its median link sits on a packet boundary,
// and a ratio of medians jumps between about 4.6x and 6.8x from one seed
// to the next as that median moves between two and three packets.
func medianLinkGain(cs []scored, a, b schemes.RecoveryScheme) float64 {
	var gains []float64
	for _, c := range cs {
		bl := c.links[schemes.Slug(b.Name())]
		for k, x := range c.links[schemes.Slug(a.Name())] {
			switch y := bl[k].DeliveredBytes; {
			case y > 0:
				gains = append(gains, float64(x.DeliveredBytes)/float64(y))
			case x.DeliveredBytes > 0:
				gains = append(gains, math.Inf(1))
			}
		}
	}
	if g := stats.MedianOrZero(gains); !math.IsInf(g, 1) {
		return g
	}
	return 0
}

// check reruns the first deployment's cycle outside the timed phase: every
// scheme's delivered bytes must repeat the timed cycle's exactly. A
// mismatch fails that cycle's ops.
func (f *figures) check() (int, error) {
	c, err := f.cycle(f.opts(0), nil)
	if err != nil {
		return 0, err
	}
	first := f.pooled[0]
	for name, d := range first.delivered {
		if c.delivered[name] != d {
			fmt.Fprintf(os.Stderr, "perfbench: figures: %s delivered %v on rerun, %v timed\n", name, c.delivered[name], d)
			return first.txs, nil
		}
	}
	return 0, nil
}

func (f *figures) endToEnd(m metrics) {
	m.set("pp_gain", medianLinkGain(f.pooled, schemes.PPR{}, schemes.PacketCRC{}), "x",
		fmt.Sprintf("median per-link PPR/packet-CRC throughput over %d deployments; paper ≈7x", len(f.pooled)))
}

func (f *figures) close() {}
