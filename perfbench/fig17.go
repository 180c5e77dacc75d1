package main

import (
	"fmt"
	"os"
	"reflect"
	"time"

	"ppr/internal/experiments"
	"ppr/internal/stats"
)

// fig17 is the paper's headline closed-loop result at paper scale: 16
// contending sender pairs, 1500-byte packets, 4 s of simulated airtime per
// pair, under PP-ARQ, fragmented CRC and packet CRC. One op is one
// simulated link-layer transfer carried to its outcome (delivered or given
// up by the simulated protocol); one request (the transfer_* latency) is
// one whole Fig. 17 run.
//
// Each run is on a fresh testbed drawn from the seed (see cycles).
type fig17 struct {
	seed    uint64
	workers int
	// gainRuns is how many runs pp_gain pools: a fixed prefix, so the
	// figure does not depend on how many runs a noisy host completes.
	gainRuns int

	results []experiments.Fig17Result // the first gainRuns runs
}

func (f *fig17) opts(deployment int) experiments.Options {
	return experiments.Options{Seed: subSeed(f.seed, deployment), Workers: f.workers}
}

// setup warms the closed-loop engine with one quick-scale Fig. 17 run.
func (f *fig17) setup() error {
	o := f.opts(0)
	o.Quick = true
	if r := experiments.Fig17(o); len(r.Pairs) == 0 {
		return fmt.Errorf("fig17: no contending pairs at seed %d", o.Seed)
	}
	return nil
}

// transfers counts the simulated link-layer transfers of one run.
func transfers(r experiments.Fig17Result) int {
	n := 0
	for _, c := range r.Curves {
		n += c.Transfers + c.Failures
	}
	return n
}

func (f *fig17) run(deadline time.Time, sp *spans, sm *speedometer) (tally, error) {
	f.results = nil
	return cycles(deadline, f.gainRuns, sm, func(d int) (int, int, error) {
		end := sp.begin("experiments.fig17")
		r := experiments.Fig17(f.opts(d))
		end()
		if d < f.gainRuns {
			f.results = append(f.results, r)
		}
		n := transfers(r)
		if n == 0 {
			fmt.Fprintf(os.Stderr, "perfbench: fig17 deployment %d: no transfers\n", d)
			return 1, 0, nil
		}
		return n, n, nil
	})
}

// check reruns the first deployment's Fig. 17 on one worker, outside the
// timed phase: the result must be identical to the timed run on all
// workers. A mismatch fails that run's ops.
func (f *fig17) check() (int, error) {
	o := f.opts(0)
	o.Workers = 1
	if r := experiments.Fig17(o); !reflect.DeepEqual(r, f.results[0]) {
		fmt.Fprintf(os.Stderr, "perfbench: fig17 differs between 1 and %d workers\n", f.workers)
		return transfers(f.results[0]), nil
	}
	return 0, nil
}

// endToEnd reports PP-ARQ's gain over packet CRC as the ratio of median
// pair throughputs over the pairs of every deployment.
func (f *fig17) endToEnd(m metrics) {
	var pp, crc []float64
	for _, r := range f.results {
		for _, c := range r.Curves {
			switch c.Layer {
			case "pp-arq":
				pp = append(pp, c.PairKbps...)
			case "packet-crc-arq":
				crc = append(crc, c.PairKbps...)
			}
		}
	}
	g := 0.0
	if b := stats.MedianOrZero(crc); b > 0 {
		g = stats.MedianOrZero(pp) / b
	}
	m.set("pp_gain", g, "x", fmt.Sprintf("PP-ARQ/packet-CRC median pair throughput over %d deployments; paper ≈2x", len(f.results)))
}

func (f *fig17) close() {}
