package experiments

import (
	"context"

	"ppr/internal/core/pparq"
	"ppr/internal/frame"
	"ppr/internal/phy"
	"ppr/internal/schemes"
	"ppr/internal/sim"
	"ppr/internal/stats"
)

// burstyLink is a single wireless hop whose transmissions suffer
// collision-style bursts: with probability BurstProb per transmission, one
// or two contiguous chip ranges are overwritten with noise, the footprint
// a colliding packet leaves. It models the "busy network" conditions of
// the paper's single-link PP-ARQ experiment (Sec. 7.5).
type burstyLink struct {
	rx        *frame.Receiver
	rng       *stats.RNG
	burstProb float64
	// meanBurstBytes sets the exponential mean of burst footprints.
	meanBurstBytes float64
}

func (l *burstyLink) Transmit(f frame.Frame) *frame.Reception {
	chips := f.AirChips()
	if l.rng.Bool(l.burstProb) {
		nBursts := 1 + l.rng.Intn(2)
		for b := 0; b < nBursts; b++ {
			lenBytes := int(l.rng.ExpFloat64()*l.meanBurstBytes) + 4
			startChip := l.rng.Intn(chips.Len())
			endChip := startChip + lenBytes*frame.ChipsPerByte
			if endChip > chips.Len() {
				endChip = chips.Len()
			}
			chips.FillUniform(startChip, endChip, l.rng.Uint64)
		}
	}
	return frame.BestReception(l.rx.Receive(chips))
}

// Fig16Result is the Fig. 16 reproduction: the distribution of partial
// retransmission sizes over a busy single link.
type Fig16Result struct {
	// PacketBytes is the data packet payload size (the paper uses 250).
	PacketBytes int
	// Transfers is the number of packets pushed through PP-ARQ.
	Transfers int
	// RetxSizes holds every response frame's payload size in bytes.
	RetxSizes []float64
	// CDF is the distribution Fig. 16 plots.
	CDF []stats.CDFPoint
	// MedianRetxBytes is the median partial retransmission size; the paper
	// reports ~half the 250-byte packet size.
	MedianRetxBytes float64
	// TotalStats aggregates the byte accounting across all transfers.
	TotalStats pparq.Stats
	// Failures counts transfers PP-ARQ gave up on.
	Failures int
}

// Fig16 reproduces Figure 16: one sender streams 250-byte data packets
// back-to-back to one receiver over a link suffering collision bursts;
// every PP-ARQ partial retransmission's size is recorded.
func Fig16(o Options) Fig16Result {
	res, err := fig16Ctx(context.Background(), o)
	must(err)
	return res
}

func fig16Ctx(ctx context.Context, o Options) (Fig16Result, error) {
	rng := stats.NewRNG(o.Seed ^ 0xf16)
	transfers := 120
	if o.Quick {
		transfers = 25
	}
	const packetBytes = 250

	fwd := &burstyLink{
		rx:             frame.NewReceiver(phy.HardDecoder{}),
		rng:            rng.Split(),
		burstProb:      0.8,
		meanBurstBytes: 60,
	}
	// The reverse link is quieter (feedback packets are short and the
	// receiver defers to data traffic) but not perfect.
	rev := &burstyLink{
		rx:             frame.NewReceiver(phy.HardDecoder{}),
		rng:            rng.Split(),
		burstProb:      0.2,
		meanBurstBytes: 30,
	}
	sender := pparq.NewSender(fwd, rev, 10, 20, pparq.Config{})

	res := Fig16Result{PacketBytes: packetBytes, Transfers: transfers}
	payloadRng := rng.Split()
	for i := 0; i < transfers; i++ {
		// Each transfer is the cancellation unit: a handful of frames over
		// the bursty link, milliseconds of work.
		if err := ctx.Err(); err != nil {
			return Fig16Result{}, err
		}
		payload := make([]byte, packetBytes)
		for b := range payload {
			payload[b] = byte(payloadRng.Intn(256))
		}
		_, st, err := sender.Transfer(payload)
		if err != nil {
			res.Failures++
			continue
		}
		res.TotalStats.DataAirBytes += st.DataAirBytes
		res.TotalStats.RetxAirBytes += st.RetxAirBytes
		res.TotalStats.FeedbackAirBytes += st.FeedbackAirBytes
		res.TotalStats.Rounds += st.Rounds
		res.TotalStats.Misses += st.Misses
		res.TotalStats.FullResends += st.FullResends
		for _, sz := range st.RetxPayloadSizes {
			res.RetxSizes = append(res.RetxSizes, float64(sz))
		}
	}
	res.CDF = stats.CDF(res.RetxSizes)
	res.MedianRetxBytes = stats.MedianOrZero(res.RetxSizes)
	return res, nil
}

// SummaryRow is one headline comparison in the Table 1 stand-in.
type SummaryRow struct {
	// Name describes the comparison.
	Name string
	// Value is the measured number (a ratio or rate).
	Value float64
	// PaperValue is what the paper reports for the same comparison.
	PaperValue string
}

// Summary computes the headline claims of Table 1 from fresh runs: the
// per-link throughput factors between PPR, fragmented CRC and packet CRC
// at moderate and high load, the postamble acquisition gain, and PP-ARQ's
// median retransmission fraction.
func Summary(o Options) []SummaryRow {
	rows, err := summaryCtx(context.Background(), o)
	must(err)
	return rows
}

func summaryCtx(ctx context.Context, o Options) ([]SummaryRow, error) {
	p := DefaultSchemeParams()
	var rows []SummaryRow

	ratioAt := func(load float64, a, b schemes.RecoveryScheme) (float64, error) {
		tr, err := o.TraceContext(ctx, load, false)
		if err != nil {
			return 0, err
		}
		pp := tr.Post(o.Workers)
		am := stats.MedianOrZero(ThroughputsKbps(pp.PerLinkDelivery(sim.VariantPostamble, a, p), tr.Cfg.DurationSec))
		bm := stats.MedianOrZero(ThroughputsKbps(pp.PerLinkDelivery(sim.VariantPostamble, b, p), tr.Cfg.DurationSec))
		if bm == 0 {
			return 0, nil
		}
		return am / bm, nil
	}

	modPPRvsCRC, err := ratioAt(LoadModerate, schemes.PPR{}, schemes.PacketCRC{})
	if err != nil {
		return nil, err
	}
	highPPRvsCRC, err := ratioAt(LoadHigh, schemes.PPR{}, schemes.PacketCRC{})
	if err != nil {
		return nil, err
	}
	highPPRvsFrag, err := ratioAt(LoadHigh, schemes.PPR{}, schemes.FragCRC{})
	if err != nil {
		return nil, err
	}

	rows = append(rows,
		SummaryRow{
			Name:       "PPR vs packet CRC median throughput, moderate load",
			Value:      modPPRvsCRC,
			PaperValue: "≈2x (Sec. 7.2)",
		},
		SummaryRow{
			Name:       "PPR vs packet CRC median throughput, high load",
			Value:      highPPRvsCRC,
			PaperValue: "≈7x (Sec. 1, 7.2)",
		},
		SummaryRow{
			Name:       "PPR vs fragmented CRC median throughput, high load",
			Value:      highPPRvsFrag,
			PaperValue: "≈2x high load, 1.6x moderate (Table 1)",
		},
	)

	f16, err := fig16Ctx(ctx, o)
	if err != nil {
		return nil, err
	}
	rows = append(rows, SummaryRow{
		Name:       "PP-ARQ median retransmission fraction of packet size",
		Value:      f16.MedianRetxBytes / float64(f16.PacketBytes),
		PaperValue: "≈0.5 (Sec. 7.5)",
	})
	return rows, nil
}
