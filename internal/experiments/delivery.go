package experiments

import (
	"context"
	"fmt"
	"sort"

	"ppr/internal/schemes"
	"ppr/internal/sim"
	"ppr/internal/stats"
)

// DeliveryCurve is one CDF in a delivery-rate figure.
type DeliveryCurve struct {
	// Label matches the paper's legend, e.g. "PPR, postamble decoding".
	Label string
	// CDF is the per-link distribution of the metric.
	CDF []stats.CDFPoint
	// Median is the distribution's median, the number the paper quotes in
	// its factor-of-N claims.
	Median float64
}

// DeliveryFigure is the output of Figs. 8, 9 and 10: one curve per
// (registered scheme, postamble on/off) pair, the paper's three schemes
// first.
type DeliveryFigure struct {
	// Name identifies the figure ("fig8" etc.).
	Name string
	// OfferedBps and CarrierSense record the operating point.
	OfferedBps   float64
	CarrierSense bool
	// Curves holds the per-link delivery-rate CDFs.
	Curves []DeliveryCurve
}

// deliveryFigure post-processes one operating point's shared trace under
// every selected scheme/variant combination, sharing one set of
// correctness masks across all of them.
func deliveryFigure(o Options, name string, offeredBps float64, carrierSense bool) DeliveryFigure {
	fig, err := deliveryFigureCtx(context.Background(), o, name, offeredBps, carrierSense)
	must(err)
	return fig
}

func deliveryFigureCtx(ctx context.Context, o Options, name string, offeredBps float64, carrierSense bool) (DeliveryFigure, error) {
	tr, err := o.TraceContext(ctx, offeredBps, carrierSense)
	if err != nil {
		return DeliveryFigure{}, err
	}
	pp := tr.Post(o.Workers)
	p := DefaultSchemeParams()

	fig := DeliveryFigure{Name: name, OfferedBps: offeredBps, CarrierSense: carrierSense}
	for _, scheme := range o.schemeList() {
		for variant := range sim.VariantNames {
			acc := pp.PerLinkDelivery(variant, scheme, p)
			rates := Rates(acc)
			label := fmt.Sprintf("%s, %s", scheme.Name(), sim.VariantNames[variant])
			fig.Curves = append(fig.Curves, DeliveryCurve{
				Label:  label,
				CDF:    stats.CDF(rates),
				Median: stats.MedianOrZero(rates),
			})
		}
	}
	return fig, nil
}

// Fig8 reproduces Figure 8: per-link equivalent frame delivery rate with
// carrier sense enabled at moderate offered load (3.5 Kbit/s/node).
func Fig8(o Options) DeliveryFigure {
	return deliveryFigure(o, "fig8", LoadModerate, true)
}

// Fig9 reproduces Figure 9: carrier sense disabled, moderate load.
func Fig9(o Options) DeliveryFigure {
	return deliveryFigure(o, "fig9", LoadModerate, false)
}

// Fig10 reproduces Figure 10: carrier sense disabled, high load
// (13.8 Kbit/s/node).
func Fig10(o Options) DeliveryFigure {
	return deliveryFigure(o, "fig10", LoadHigh, false)
}

// ThroughputFigure is the output of Fig. 11: per-link end-to-end
// throughput CDFs at medium load.
type ThroughputFigure struct {
	// OfferedBps records the operating point.
	OfferedBps float64
	// Curves holds one CDF per scheme/variant, in Kbit/s.
	Curves []DeliveryCurve
}

// Fig11 reproduces Figure 11: end-to-end per-link throughput at
// 6.9 Kbit/s/node offered load, carrier sense disabled, near channel
// saturation.
func Fig11(o Options) ThroughputFigure {
	fig, err := fig11Ctx(context.Background(), o)
	must(err)
	return fig
}

func fig11Ctx(ctx context.Context, o Options) (ThroughputFigure, error) {
	tr, err := o.TraceContext(ctx, LoadMedium, false)
	if err != nil {
		return ThroughputFigure{}, err
	}
	cfg := tr.Cfg
	pp := tr.Post(o.Workers)
	p := DefaultSchemeParams()

	fig := ThroughputFigure{OfferedBps: LoadMedium}
	for _, scheme := range o.schemeList() {
		for variant := range sim.VariantNames {
			acc := pp.PerLinkDelivery(variant, scheme, p)
			tputs := ThroughputsKbps(acc, cfg.DurationSec)
			label := fmt.Sprintf("%s, %s", scheme.Name(), sim.VariantNames[variant])
			fig.Curves = append(fig.Curves, DeliveryCurve{
				Label:  label,
				CDF:    stats.CDF(tputs),
				Median: stats.MedianOrZero(tputs),
			})
		}
	}
	return fig, nil
}

// ScatterPoint is one link in the Fig. 12 scatter plot.
type ScatterPoint struct {
	// Link identifies the (sender, receiver) pair.
	Link LinkKey
	// FragKbps is the fragmented-CRC throughput (x axis).
	FragKbps float64
	// YKbps is the compared scheme's throughput (y axis).
	YKbps float64
}

// ScatterSeries is one (scheme, load) series of Fig. 12.
type ScatterSeries struct {
	// Scheme is the y-axis scheme (PPR or packet CRC).
	Scheme schemes.RecoveryScheme
	// OfferedBps is the operating load.
	OfferedBps float64
	// Points holds one point per link.
	Points []ScatterPoint
}

// Fig12 reproduces Figure 12: per-link throughput of PPR (triangles) and
// packet CRC (circles) against fragmented CRC on the x axis, at all three
// offered loads, carrier sense disabled, postamble decoding enabled.
func Fig12(o Options) []ScatterSeries {
	series, err := fig12Ctx(context.Background(), o)
	must(err)
	return series
}

func fig12Ctx(ctx context.Context, o Options) ([]ScatterSeries, error) {
	p := DefaultSchemeParams()
	const variant = sim.VariantPostamble
	var series []ScatterSeries
	for _, load := range Loads {
		tr, err := o.TraceContext(ctx, load, false)
		if err != nil {
			return nil, err
		}
		cfg := tr.Cfg
		pp := tr.Post(o.Workers)
		frag := pp.PerLinkDelivery(variant, schemes.FragCRC{}, p)
		// Deterministic link order: map iteration would shuffle the scatter
		// points run to run.
		links := make([]LinkKey, 0, len(frag))
		for k := range frag {
			links = append(links, k)
		}
		sort.Slice(links, func(a, b int) bool {
			if links[a].Src != links[b].Src {
				return links[a].Src < links[b].Src
			}
			return links[a].Rcv < links[b].Rcv
		})
		for _, scheme := range []schemes.RecoveryScheme{schemes.PacketCRC{}, schemes.PPR{}} {
			other := pp.PerLinkDelivery(variant, scheme, p)
			s := ScatterSeries{Scheme: scheme, OfferedBps: load}
			for _, k := range links {
				oa, exists := other[k]
				if !exists {
					continue
				}
				s.Points = append(s.Points, ScatterPoint{
					Link:     k,
					FragKbps: float64(frag[k].DeliveredBytes) * 8 / cfg.DurationSec / 1000,
					YKbps:    float64(oa.DeliveredBytes) * 8 / cfg.DurationSec / 1000,
				})
			}
			series = append(series, s)
		}
	}
	return series, nil
}

// Table2Row is one row of Table 2: fragmented-CRC aggregate throughput as
// a function of chunk count.
type Table2Row struct {
	// Chunks is the number of fragments per 1500-byte packet.
	Chunks int
	// FragBytes is the corresponding fragment size.
	FragBytes int
	// AggregateKbps is the network-wide delivered application throughput.
	AggregateKbps float64
}

// Table2 reproduces Table 2: the fragment-size sweep that picks 50-byte
// chunks. The paper runs it under load; we use the high-load, no-carrier-
// sense point where the trade-off is sharpest.
func Table2(o Options) []Table2Row {
	rows, err := table2Ctx(context.Background(), o)
	must(err)
	return rows
}

func table2Ctx(ctx context.Context, o Options) ([]Table2Row, error) {
	tr, err := o.TraceContext(ctx, LoadHigh, false)
	if err != nil {
		return nil, err
	}
	cfg := tr.Cfg
	pp := tr.Post(o.Workers)
	const variant = sim.VariantPostamble

	chunkCounts := []int{1, 10, 30, 100, 300}
	var rows []Table2Row
	for _, chunks := range chunkCounts {
		fragBytes := cfg.PacketBytes / chunks
		if fragBytes < 1 {
			fragBytes = 1
		}
		p := SchemeParams{FragBytes: fragBytes, Eta: 6}
		acc := pp.PerLinkDelivery(variant, schemes.FragCRC{}, p)
		total := 0
		for _, a := range acc {
			total += a.DeliveredBytes
		}
		rows = append(rows, Table2Row{
			Chunks:        chunks,
			FragBytes:     fragBytes,
			AggregateKbps: float64(total) * 8 / cfg.DurationSec / 1000,
		})
	}
	return rows, nil
}
