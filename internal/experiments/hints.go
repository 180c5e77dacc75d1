package experiments

import (
	"context"

	"ppr/internal/schemes"
	"ppr/internal/sim"
	"ppr/internal/stats"
)

// HintCurve is one CDF of Hamming-distance hints, conditioned on codeword
// correctness.
type HintCurve struct {
	// OfferedBps is the load the trace was collected at.
	OfferedBps float64
	// Correct says whether the curve conditions on correctly-decoded
	// codewords (true) or incorrect ones (false).
	Correct bool
	// CDF is the distribution of Hamming distances.
	CDF []stats.CDFPoint
	// Count is the number of codewords in the sample.
	Count int
}

// hintTrace collects (hint, correct) pairs for every decoded payload
// codeword at one operating point, postamble decoding enabled (the paper's
// receivers always run it).
func hintTrace(ctx context.Context, o Options, offeredBps float64) (correct, incorrect []float64, err error) {
	tr, err := o.TraceContext(ctx, offeredBps, false)
	if err != nil {
		return nil, nil, err
	}
	outs := tr.Outs
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
			if d.Symbol == out.TruthSyms[idx] {
				correct = append(correct, d.Hint)
			} else {
				incorrect = append(incorrect, d.Hint)
			}
		}
	}
	return correct, incorrect, nil
}

// Fig3 reproduces Figure 3: the CDF of Hamming distance over every
// received codeword, separated by correctness, at the three offered loads.
// This is the experiment establishing Hamming distance as a SoftPHY hint.
func Fig3(o Options) []HintCurve {
	curves, err := fig3Ctx(context.Background(), o)
	must(err)
	return curves
}

func fig3Ctx(ctx context.Context, o Options) ([]HintCurve, error) {
	var curves []HintCurve
	for _, load := range Loads {
		correct, incorrect, err := hintTrace(ctx, o, load)
		if err != nil {
			return nil, err
		}
		curves = append(curves,
			HintCurve{OfferedBps: load, Correct: true, CDF: stats.CDF(correct), Count: len(correct)},
			HintCurve{OfferedBps: load, Correct: false, CDF: stats.CDF(incorrect), Count: len(incorrect)},
		)
	}
	return curves, nil
}

// MissLengthCurve is one CCDF of contiguous miss lengths at a threshold η
// (Fig. 14).
type MissLengthCurve struct {
	// Eta is the labelling threshold.
	Eta float64
	// CCDF is the complementary distribution of contiguous miss run
	// lengths.
	CCDF []stats.CDFPoint
	// MissRate is the overall fraction of incorrect codewords labelled
	// good at this η.
	MissRate float64
}

// Fig14 reproduces Figure 14: the distribution of lengths of contiguous
// misses (incorrect codewords mislabelled good) for η ∈ {1, 2, 3, 4},
// collected at high load where collisions dominate.
func Fig14(o Options) []MissLengthCurve {
	curves, err := fig14Ctx(context.Background(), o)
	must(err)
	return curves
}

func fig14Ctx(ctx context.Context, o Options) ([]MissLengthCurve, error) {
	tr, err := o.TraceContext(ctx, LoadHigh, false)
	if err != nil {
		return nil, err
	}
	outs := tr.Outs

	var curves []MissLengthCurve
	for _, eta := range []float64{1, 2, 3, 4} {
		var lengths []float64
		misses, incorrect := 0, 0
		for i := range outs {
			out := &outs[i]
			if !out.Acquired || out.Variant != sim.VariantPostamble {
				continue
			}
			run := 0
			flush := func() {
				if run > 0 {
					lengths = append(lengths, float64(run))
					run = 0
				}
			}
			for k, d := range out.Decisions {
				idx := out.MissingPrefix + k
				if idx >= len(out.TruthSyms) {
					break
				}
				if d.Symbol != out.TruthSyms[idx] {
					incorrect++
					if d.Hint <= eta {
						misses++
						run++
						continue
					}
				}
				flush()
			}
			flush()
		}
		c := MissLengthCurve{Eta: eta, CCDF: stats.CCDF(lengths)}
		if incorrect > 0 {
			c.MissRate = float64(misses) / float64(incorrect)
		}
		curves = append(curves, c)
	}
	return curves, nil
}

// FalseAlarmCurve is one CCDF of correct-codeword hints (Fig. 15): the
// value at x = η is the false alarm rate at that threshold.
type FalseAlarmCurve struct {
	// OfferedBps is the load the trace was collected at.
	OfferedBps float64
	// CCDF is the complementary distribution of correct codewords' hints.
	CCDF []stats.CDFPoint
	// FalseAlarmAtEta6 is the curve evaluated at the paper's operating
	// η = 6 (schemes.DefaultParams().Eta).
	FalseAlarmAtEta6 float64
}

// Fig15 reproduces Figure 15: the complementary CDF of Hamming distance
// for every correctly-decoded codeword, per load — the false alarm rate as
// a function of threshold.
func Fig15(o Options) []FalseAlarmCurve {
	curves, err := fig15Ctx(context.Background(), o)
	must(err)
	return curves
}

func fig15Ctx(ctx context.Context, o Options) ([]FalseAlarmCurve, error) {
	eta := schemes.DefaultParams().Eta
	var curves []FalseAlarmCurve
	for _, load := range Loads {
		correct, _, err := hintTrace(ctx, o, load)
		if err != nil {
			return nil, err
		}
		ccdf := stats.CCDF(correct)
		fa := 0.0
		if len(correct) > 0 {
			above := 0
			for _, h := range correct {
				if h > eta {
					above++
				}
			}
			fa = float64(above) / float64(len(correct))
		}
		curves = append(curves, FalseAlarmCurve{
			OfferedBps:       load,
			CCDF:             ccdf,
			FalseAlarmAtEta6: fa,
		})
	}
	return curves, nil
}
