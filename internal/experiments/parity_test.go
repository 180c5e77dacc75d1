package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"ppr/internal/baseline"
	"ppr/internal/schemes"
	"ppr/internal/sim"
	"ppr/internal/stats"
)

// This file freezes the seed's enum-based post-processing — the closed
// `Scheme int` switch that predated the schemes registry — and proves the
// registry-backed packet-CRC/frag-CRC/PPR schemes reproduce its
// DeliveryFigure output bit for bit, masks shared and workers fanned out or
// not. The one deliberate divergence from the seed is folded in here and
// covered by its own regression test (see TestPPROddSymbolCount in
// internal/schemes): the seed's PPR branch converted good symbols to bytes
// with a flooring goodCorrect*4/8, discarding a delivered nibble from every
// odd count; the frozen reference rounds up exactly like schemes.PPR.

type legacyScheme int

const (
	legacyPacketCRC legacyScheme = iota
	legacyFragCRC
	legacyPPR
)

func (s legacyScheme) String() string {
	switch s {
	case legacyPacketCRC:
		return "Packet CRC"
	case legacyFragCRC:
		return "Fragmented CRC"
	default:
		return "PPR"
	}
}

// legacyDeliveredAppBytes is the seed's DeliveredAppBytes verbatim (modulo
// the documented PPR rounding fix), mask recomputed per call exactly as the
// seed did.
func legacyDeliveredAppBytes(o *sim.Outcome, s legacyScheme, p SchemeParams, payloadBytes int) int {
	if !o.Acquired {
		return 0
	}
	mask := o.CorrectMask()
	switch s {
	case legacyPacketCRC:
		for _, ok := range mask {
			if !ok {
				return 0
			}
		}
		return payloadBytes

	case legacyFragCRC:
		appBytes := baseline.AppCapacity(payloadBytes, p.FragBytes)
		delivered := 0
		pos := 0
		for off := 0; off < appBytes; off += p.FragBytes {
			end := off + p.FragBytes
			if end > appBytes {
				end = appBytes
			}
			fragPayloadBytes := end - off + baseline.FragOverhead
			ok := true
			for b := pos; b < pos+fragPayloadBytes && ok; b++ {
				if 2*b+1 >= len(mask) || !mask[2*b] || !mask[2*b+1] {
					ok = false
				}
			}
			if ok {
				delivered += end - off
			}
			pos += fragPayloadBytes
		}
		return delivered

	default: // legacyPPR
		goodCorrect := 0
		for i, d := range o.Decisions {
			idx := o.MissingPrefix + i
			if idx >= len(mask) {
				break
			}
			if d.Hint <= p.Eta && mask[idx] {
				goodCorrect++
			}
		}
		return (goodCorrect*4 + 7) / 8
	}
}

func legacyAppBytesPerPacket(s legacyScheme, p SchemeParams, payloadBytes int) int {
	if s == legacyFragCRC {
		return baseline.AppCapacity(payloadBytes, p.FragBytes)
	}
	return payloadBytes
}

// legacyPerLinkDelivery is the seed's sequential accumulator loop.
func legacyPerLinkDelivery(outs []sim.Outcome, variant int, s legacyScheme, p SchemeParams, payloadBytes int) map[LinkKey]LinkAccum {
	appPerPkt := legacyAppBytesPerPacket(s, p, payloadBytes)
	acc := map[LinkKey]LinkAccum{}
	for i := range outs {
		o := &outs[i]
		if o.Variant != variant {
			continue
		}
		k := LinkKey{Src: o.Src, Rcv: o.Receiver}
		a := acc[k]
		a.Packets++
		a.SentBytes += appPerPkt
		a.DeliveredBytes += legacyDeliveredAppBytes(o, s, p, payloadBytes)
		acc[k] = a
	}
	return acc
}

// legacyDeliveryFigure is the seed's figure loop: the three enum schemes,
// two variants each.
func legacyDeliveryFigure(o Options, name string, offeredBps float64, carrierSense bool) DeliveryFigure {
	tr := o.Trace(offeredBps, carrierSense)
	cfg, outs := tr.Cfg, tr.Outs
	p := DefaultSchemeParams()

	fig := DeliveryFigure{Name: name, OfferedBps: offeredBps, CarrierSense: carrierSense}
	for _, scheme := range []legacyScheme{legacyPacketCRC, legacyFragCRC, legacyPPR} {
		for variant := range sim.VariantNames {
			acc := legacyPerLinkDelivery(outs, variant, scheme, p, cfg.PacketBytes)
			rates := Rates(acc)
			label := fmt.Sprintf("%s, %s", scheme, sim.VariantNames[variant])
			var median float64
			if len(rates) > 0 {
				median = stats.Median(rates)
			}
			fig.Curves = append(fig.Curves, DeliveryCurve{
				Label:  label,
				CDF:    stats.CDF(rates),
				Median: median,
			})
		}
	}
	return fig
}

// TestRegistrySchemesMatchSeedEnum is the refactor's parity proof: for every
// delivery figure and two seeds, the registry-backed standard schemes
// produce curves bit-identical (labels, every CDF point, medians) to the
// frozen enum implementation. The registry figures carry extra FEC curves
// after the standard six; those are new surface, not drift, so the
// comparison covers the leading standard block.
func TestRegistrySchemesMatchSeedEnum(t *testing.T) {
	points := []struct {
		name         string
		load         float64
		carrierSense bool
	}{
		{"fig8", LoadModerate, true},
		{"fig9", LoadModerate, false},
		{"fig10", LoadHigh, false},
	}
	for _, seed := range []uint64{1, 42} {
		o := Options{Seed: seed, Quick: true}
		for _, pt := range points {
			want := legacyDeliveryFigure(o, pt.name, pt.load, pt.carrierSense)
			got := deliveryFigure(o, pt.name, pt.load, pt.carrierSense)
			nStd := 2 * len(schemes.Standard())
			if len(got.Curves) < nStd || len(want.Curves) != nStd {
				t.Fatalf("seed %d %s: %d registry curves, %d legacy", seed, pt.name, len(got.Curves), len(want.Curves))
			}
			for i := 0; i < nStd; i++ {
				if got.Curves[i].Label != want.Curves[i].Label {
					t.Fatalf("seed %d %s curve %d: label %q vs legacy %q",
						seed, pt.name, i, got.Curves[i].Label, want.Curves[i].Label)
				}
				if !reflect.DeepEqual(got.Curves[i], want.Curves[i]) {
					t.Errorf("seed %d %s: curve %q diverges from the seed enum",
						seed, pt.name, got.Curves[i].Label)
				}
			}
		}
	}
}

// TestPerLinkDeliveryMatchesLegacyAccumulators pins parity one level down:
// the shared-mask parallel accumulators equal the seed's per-call-mask
// sequential ones for every standard scheme and variant.
func TestPerLinkDeliveryMatchesLegacyAccumulators(t *testing.T) {
	o := quickOpts()
	tr := o.Trace(LoadHigh, false)
	p := DefaultSchemeParams()
	pp := tr.Post(0)
	pairs := []struct {
		reg schemes.RecoveryScheme
		leg legacyScheme
	}{
		{schemes.PacketCRC{}, legacyPacketCRC},
		{schemes.FragCRC{}, legacyFragCRC},
		{schemes.PPR{}, legacyPPR},
	}
	for _, pair := range pairs {
		for variant := range sim.VariantNames {
			got := pp.PerLinkDelivery(variant, pair.reg, p)
			want := legacyPerLinkDelivery(tr.Outs, variant, pair.leg, p, tr.Cfg.PacketBytes)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s variant %d: registry accumulators diverge from seed enum", pair.reg.Name(), variant)
			}
		}
	}
}
