// Jammer: partial packet recovery under adversarial interference. Runs the
// 27-node testbed over the same deployment once clean and once per selected
// jam strategy on sender 0, and compares per-link delivery under packet CRC
// vs PPR for each.
//
// The adversaries come from the composable jam strategy registry: -jam
// selects any subset of ppr.JamStrategyNames() (the default pair is the
// classic periodic and reactive jammers), so the same binary also pits PPR
// against the adaptive preamble / sweep / learner strategies without code
// changes.
//
// The point the paper's collision experiments make for hidden terminals
// (Sec. 7.3) carries over to deliberate interference: a jam burst destroys
// a bounded run of symbols, whole-packet CRC discards everything, and PPR
// keeps the symbols whose SoftPHY hints survived — so PPR's advantage
// *grows* under jamming.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ppr"
	"ppr/internal/experiments"
	"ppr/internal/stats"
)

// jamReport fixes one report's operating point.
type jamReport struct {
	LoadKbps    float64
	DurationSec float64
	PacketBytes int
	Seed        uint64
	Workers     int
	// Strategies names the jam strategies compared, each overlaid on
	// sender 0 of Poisson traffic through the scenario registry.
	Strategies []string
}

func main() {
	r := jamReport{}
	flag.Float64Var(&r.LoadKbps, "load", 6.9, "offered load per node, Kbit/s")
	flag.Float64Var(&r.DurationSec, "dur", 6, "simulated seconds")
	flag.IntVar(&r.PacketBytes, "size", 500, "packet payload bytes")
	flag.Uint64Var(&r.Seed, "seed", 1, "deployment/channel seed")
	flag.IntVar(&r.Workers, "workers", 0, "delivery worker goroutines (0 = all cores)")
	jamFlag := flag.String("jam", "periodic,reactive",
		"comma-separated jam strategies (registered: "+strings.Join(ppr.JamStrategyNames(), ", ")+")")
	flag.Parse()

	for _, name := range strings.Split(*jamFlag, ",") {
		if name = strings.TrimSpace(name); name != "" {
			r.Strategies = append(r.Strategies, name)
		}
	}
	if err := r.run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "jammer:", err)
		os.Exit(1)
	}
}

// run prints the delivery comparison table: one row for clean Poisson
// traffic, then one per jam strategy.
func (r jamReport) run(w io.Writer) error {
	tb := ppr.NewTestbed(ppr.DefaultChannelParams(), r.Seed)
	variants := []ppr.SimVariant{{Name: "postamble", UsePostamble: true}}
	p := experiments.DefaultSchemeParams()

	type row struct {
		label  string
		sc     ppr.Scenario
		jammed bool
	}
	rows := []row{{"clean (poisson)", ppr.PoissonScenario(), false}}
	for _, name := range r.Strategies {
		sc, err := ppr.ScenarioByName("jam-" + name)
		if err != nil {
			return err
		}
		rows = append(rows, row{name + " jammer", sc, true})
	}

	fmt.Fprintf(w, "%-18s %8s %14s %10s %10s %8s\n",
		"scenario", "jam txs", "victim txs", "pktCRC", "PPR", "PPR/CRC")
	for _, s := range rows {
		cfg := ppr.SimConfig{
			Testbed:      tb,
			OfferedBps:   r.LoadKbps * 1000,
			PacketBytes:  r.PacketBytes,
			DurationSec:  r.DurationSec,
			CarrierSense: true,
			Seed:         r.Seed,
			Scenario:     s.sc,
			Workers:      r.Workers,
		}
		txs, outs := ppr.RunSim(cfg, variants)

		jamTxs, victimTxs := 0, 0
		for _, tx := range txs {
			if tx.Src == 0 && s.jammed {
				jamTxs++
			} else {
				victimTxs++
			}
		}
		// Score only victim links: the jammer's own frames are not traffic
		// anyone wants delivered.
		victims := outs[:0:0]
		for _, o := range outs {
			if !(o.Src == 0 && s.jammed) {
				victims = append(victims, o)
			}
		}
		// One post-processor per scenario shares the correctness masks
		// between the two schemes scored.
		pp := experiments.NewPost(victims, cfg.PacketBytes, r.Workers)
		rate := func(scheme ppr.RecoveryScheme) float64 {
			acc := pp.PerLinkDelivery(0, scheme, p)
			rates := experiments.Rates(acc)
			if len(rates) == 0 {
				return 0
			}
			return stats.Median(rates)
		}
		crc, pprRate := rate(ppr.SchemePacketCRC), rate(ppr.SchemePPR)
		ratio := 0.0
		if crc > 0 {
			ratio = pprRate / crc
		}
		fmt.Fprintf(w, "%-18s %8d %14d %10.3f %10.3f %7.2fx\n",
			s.label, jamTxs, victimTxs, crc, pprRate, ratio)
	}
	fmt.Fprintln(w, "\nmedian per-link delivery rate; jam bursts from sender 0 ignore carrier sense.")
	return nil
}
