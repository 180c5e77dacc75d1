// Command pprtrace exports raw simulation traces as CSV for external
// plotting: per-codeword (load, hint, correctness) samples for the Fig.
// 3/14/15 family, or per-link delivery rates for the Fig. 8–12 family.
//
// Usage:
//
//	pprtrace -what hints -load 13800 > hints.csv
//	pprtrace -what links -load 3500 -cs > links.csv
package main

import (
	"bufio"
	"cmp"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"

	"ppr/internal/experiments"
	"ppr/internal/radio"
	"ppr/internal/schemes"
	"ppr/internal/sim"
	"ppr/internal/testbed"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its exit turned into a return code so tests can drive
// the exporter in-process.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pprtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	what := fs.String("what", "hints", "hints | links")
	load := fs.Float64("load", 13800, "offered load, bits/s/node")
	cs := fs.Bool("cs", false, "carrier sense")
	seed := fs.Uint64("seed", 1, "seed")
	quick := fs.Bool("quick", true, "quick scale")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *what != "hints" && *what != "links" {
		fmt.Fprintf(stderr, "unknown -what %q (hints | links)\n", *what)
		return 2
	}

	tb := testbed.New(radio.DefaultParams(), *seed)
	o := experiments.Options{Seed: *seed, Quick: *quick}
	cfg := sim.Config{
		Testbed:      tb,
		OfferedBps:   *load,
		PacketBytes:  o.PacketBytes(),
		DurationSec:  o.DurationSec(),
		CarrierSense: *cs,
		Seed:         *seed,
	}
	_, outs := sim.Run(cfg)
	w := bufio.NewWriter(stdout)
	defer w.Flush()

	switch *what {
	case "hints":
		fmt.Fprintln(w, "src,receiver,sync,codeword,hint,correct")
		for i := range outs {
			out := &outs[i]
			if !out.Acquired || out.Variant != sim.VariantPostamble {
				continue
			}
			for k, d := range out.Decisions {
				idx := out.MissingPrefix + k
				if idx >= len(out.TruthSyms) {
					break
				}
				correct := 0
				if d.Symbol == out.TruthSyms[idx] {
					correct = 1
				}
				fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d\n", out.Src, out.Receiver, out.Kind, idx, d.Hint, correct)
			}
		}
	case "links":
		p := experiments.DefaultSchemeParams()
		pp := experiments.NewPost(outs, cfg.PacketBytes, 0)
		fmt.Fprintln(w, "src,receiver,scheme,postamble,packets,delivered_bytes,sent_bytes,rate")
		for _, scheme := range schemes.All() {
			for variant := range sim.VariantNames {
				acc := pp.PerLinkDelivery(variant, scheme, p)
				// Rows go out in link order, so one seed prints one file.
				keys := slices.SortedFunc(maps.Keys(acc), func(a, b experiments.LinkKey) int {
					return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Rcv, b.Rcv))
				})
				for _, k := range keys {
					a := acc[k]
					fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d,%d,%g\n",
						k.Src, k.Rcv, schemes.Slug(scheme.Name()), variant, a.Packets, a.DeliveredBytes, a.SentBytes, a.Rate())
				}
			}
		}
	}
	return 0
}
