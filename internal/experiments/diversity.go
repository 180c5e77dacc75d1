package experiments

import (
	"context"
	"sort"

	"ppr/internal/core/combine"
	"ppr/internal/schemes"
	"ppr/internal/sim"
)

// DiversityResult compares single-receiver PPR delivery against
// multi-receiver combining (the MRD application of Sec. 8.4) over one
// simulated trace.
type DiversityResult struct {
	// Packets is the number of transmissions heard by at least one
	// receiver.
	Packets int
	// MultiView counts transmissions heard by two or more receivers —
	// the ones combining can actually help.
	MultiView int
	// SingleRate is the mean delivered fraction using, for each packet,
	// only its best single reception.
	SingleRate float64
	// CombinedRate is the mean delivered fraction after min-hint combining
	// across all receptions of the packet.
	CombinedRate float64
}

// Diversity runs the high-load operating point and evaluates PPR delivery
// (good ∧ correct symbols at η = 6) with and without cross-receiver
// combining. Combining can never deliver less than the best single view —
// property-checked in the tests — and gains most under heavy collisions,
// where different receivers lose different parts of a packet.
func Diversity(o Options) DiversityResult {
	res, err := diversityCtx(context.Background(), o)
	must(err)
	return res
}

func diversityCtx(ctx context.Context, o Options) (DiversityResult, error) {
	tr, err := o.TraceContext(ctx, LoadHigh, false)
	if err != nil {
		return DiversityResult{}, err
	}
	outs := tr.Outs
	eta := schemes.DefaultParams().Eta

	// Group receptions by transmission.
	type pkt struct {
		views []combine.View
		truth []byte
	}
	byTx := map[int]*pkt{}
	for i := range outs {
		o := &outs[i]
		if o.Variant != sim.VariantPostamble || !o.Acquired {
			continue
		}
		p := byTx[o.TxID]
		if p == nil {
			p = &pkt{truth: o.TruthSyms}
			byTx[o.TxID] = p
		}
		p.views = append(p.views, combine.View{
			MissingPrefix: o.MissingPrefix,
			Decisions:     o.Decisions,
		})
	}

	// Deterministic transmission order: summing float delivery fractions in
	// map-iteration order would make the means drift run to run.
	ids := make([]int, 0, len(byTx))
	for id := range byTx {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	res := DiversityResult{}
	var singleSum, combinedSum float64
	for _, id := range ids {
		p := byTx[id]
		res.Packets++
		if len(p.views) > 1 {
			res.MultiView++
		}
		n := len(p.truth)
		deliver := func(ds []combine.View) float64 {
			merged := combine.Combine(n, ds)
			good := 0
			for i, d := range merged {
				if d.Hint != combine.Uncovered && float64(d.Hint) <= eta && d.Symbol == p.truth[i] {
					good++
				}
			}
			return float64(good) / float64(n)
		}
		best := combine.BestSingle(p.views)
		singleSum += deliver(p.views[best : best+1])
		combinedSum += deliver(p.views)
	}
	if res.Packets > 0 {
		res.SingleRate = singleSum / float64(res.Packets)
		res.CombinedRate = combinedSum / float64(res.Packets)
	}
	return res, nil
}
