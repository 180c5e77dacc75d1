package ppr_test

import (
	"fmt"

	"ppr"
	"ppr/internal/baseline"
	"ppr/internal/chipseq"
	"ppr/internal/core/combine"
	"ppr/internal/stats"
)

// The minimal PPR round trip: build a frame, push it through a collision,
// and watch SoftPHY hints expose exactly which symbols survived, then
// compute the optimal PP-ARQ retransmission request.
func Example() {
	// 1. A sender builds a link-layer frame.
	payload := []byte("partial packet recovery delivers the bits that survived the collision")
	f := ppr.NewFrame(2, 1, 0, payload)
	chips := f.AirChips()
	fmt.Printf("frame: %d payload bytes -> %d bytes on the air -> %d chips\n",
		len(payload), ppr.AirBytes(len(payload)), chips.Len())

	// 2. A collision destroys a burst in the middle of the packet.
	rng := stats.NewRNG(42)
	burstStart := chips.Len() / 2
	burstEnd := min(burstStart+1800, chips.Len())
	chips.FillUniform(burstStart, burstEnd, rng.Uint64)

	// 3. The receiver synchronizes, despreads, and attaches a Hamming
	// distance hint to every symbol.
	rx := ppr.NewReceiver(ppr.HardDecoder{})
	rec := rx.Receive(chips)[0]
	fmt.Printf("acquired via %v, header ok=%v, packet CRC ok=%v (a whole-packet\n",
		rec.Kind, rec.HeaderOK, rec.CRCOK)
	fmt.Println("receiver would discard all of this!)")

	// 4. The link layer labels symbols good/bad with the paper's η=6 rule.
	labels := ppr.DefaultThreshold().LabelAll(rec.MissingPrefix, rec.Decisions)
	good := 0
	for _, l := range labels {
		if l == ppr.Good {
			good++
		}
	}
	fmt.Printf("SoftPHY: %d of %d symbols labelled good\n", good, len(labels))

	// 5. PP-ARQ computes the cheapest retransmission request with the
	// Eq. 4/5 dynamic program.
	plan := ppr.OptimalChunks(ppr.RunsFromLabels(labels), len(labels))
	fmt.Printf("PP-ARQ requests %d chunk(s), cost model %.0f feedback+retx bits:\n",
		len(plan.Chunks), plan.CostBits)
	for _, c := range plan.Chunks {
		fmt.Printf("  resend symbols [%d, %d) — %d bytes instead of %d\n",
			c.StartSym, c.EndSym, c.Len()/2, len(payload))
	}

	// 6. Recovered payload bytes outside the requested chunks are already
	// correct.
	correct := 0
	for i, b := range rec.PayloadBytes {
		if b == payload[i] {
			correct++
		}
	}
	fmt.Printf("before any retransmission: %d of %d payload bytes already correct\n",
		correct, len(payload))

	// Output:
	// frame: 69 payload bytes -> 103 bytes on the air -> 6592 chips
	// acquired via preamble, header ok=true, packet CRC ok=false (a whole-packet
	// receiver would discard all of this!)
	// SoftPHY: 82 of 138 symbols labelled good
	// PP-ARQ requests 1 chunk(s), cost model 49 feedback+retx bits:
	//   resend symbols [73, 129) — 28 bytes instead of 69
	// before any retransmission: 40 of 69 payload bytes already correct
}

// The self-tuning pieces of the system: (a) the adaptive SoftPHY threshold
// of Sec. 3.3 learning η from verified outcomes without knowing the hint's
// scale, across two different PHY hint sources; and (b) the adaptive
// fragmented-CRC sizer of Sec. 3.4 tracking channel quality.
func ExampleNewAdaptiveThreshold() {
	fmt.Println("== Adaptive SoftPHY threshold (Sec. 3.3) ==")
	rng := stats.NewRNG(9)

	// Feed each adaptive labeler verified outcomes from its own decoder,
	// produced by the real code book under a two-state channel: mostly
	// clean, sometimes jammed.
	for _, dec := range []ppr.Decoder{ppr.HardDecoder{}, ppr.MatchedFilterDecoder{}} {
		ad := ppr.NewAdaptiveThreshold(10, 1, 0)
		for i := 0; i < 4000; i++ {
			sym := byte(rng.Intn(16))
			d := dec.Decode(observe(rng, sym, rng.Bool(0.25)))
			ad.Observe(float64(d.Hint), d.Symbol == sym)
		}
		fmt.Printf("decoder %-4s learned eta = %-5.0f (miss %.3f, false alarm %.4f)\n",
			dec.Name(), ad.Eta(), ad.MissRate(ad.Eta()), ad.FalseAlarmRate(ad.Eta()))
	}
	fmt.Println("note: the matched-filter hint lives on a 2x scale; the learned")
	fmt.Println("thresholds differ accordingly — only monotonicity was assumed.")

	fmt.Println("\n== Adaptive fragment size (Sec. 3.4) ==")
	af := baseline.NewAdaptiveFragmenter(50, 10, 800)
	phases := []struct {
		name    string
		lossy   bool
		packets int
	}{
		{"quiet channel", false, 30},
		{"interference storm", true, 20},
		{"quiet again", false, 30},
	}
	for _, ph := range phases {
		for i := 0; i < ph.packets; i++ {
			frags := 10
			ok := frags
			if ph.lossy && rng.Bool(0.8) {
				ok = frags - 1 - rng.Intn(3)
			}
			af.Record(frags, ok)
		}
		fmt.Printf("after %-20s fragment size = %d bytes\n", ph.name+":", af.FragBytes())
	}

	// Output:
	// == Adaptive SoftPHY threshold (Sec. 3.3) ==
	// decoder hdd  learned eta = 2     (miss 0.000, false alarm 0.0191)
	// decoder mf   learned eta = 4     (miss 0.000, false alarm 0.0191)
	// note: the matched-filter hint lives on a 2x scale; the learned
	// thresholds differ accordingly — only monotonicity was assumed.
	//
	// == Adaptive fragment size (Sec. 3.4) ==
	// after quiet channel:       fragment size = 800 bytes
	// after interference storm:  fragment size = 12 bytes
	// after quiet again:         fragment size = 768 bytes
}

// observe produces the received chips of one codeword interval for sym:
// clean chips at high SNR or jammed (random) chips during interference.
func observe(rng *stats.RNG, sym byte, jammed bool) uint32 {
	cw := chipseq.Codeword(sym)
	if jammed {
		return uint32(rng.Uint64())
	}
	// A couple of random chip errors.
	for i := 0; i < rng.Intn(3); i++ {
		cw ^= 1 << uint(rng.Intn(32))
	}
	return cw
}

// Multi-receiver combining, the multi-radio-diversity application the
// paper sketches in Sec. 8.4. Several sinks each capture a partial,
// hint-annotated view of the same packet over independent channels;
// because SoftPHY hints are monotone, a PHY-agnostic combiner can merge
// them symbol by symbol by minimum hint.
func Example_diversity() {
	rng := stats.NewRNG(17)
	payload := make([]byte, 300)
	for i := range payload {
		payload[i] = byte(rng.Intn(256))
	}
	f := ppr.NewFrame(1, 2, 3, payload)
	truth := nibbles(payload)

	// Three access points hear the same transmission; each suffers its own
	// independent collision burst.
	fmt.Println("one transmission, three receivers, independent collision bursts:")
	var views []combine.View
	for apIdx := 0; apIdx < 3; apIdx++ {
		chips := f.AirChips()
		lo := rng.Intn(chips.Len() * 2 / 3)
		hi := min(lo+chips.Len()/4, chips.Len())
		chips.FillUniform(lo, hi, rng.Uint64)
		rx := ppr.NewReceiver(ppr.HardDecoder{})
		for _, rec := range rx.Receive(chips) {
			if !rec.HeaderOK {
				continue
			}
			v := combine.View{MissingPrefix: rec.MissingPrefix, Decisions: rec.Decisions}
			views = append(views, v)
			fmt.Printf("  AP%d: acquired via %-9v, %3d/%d symbols correct\n",
				apIdx+1, rec.Kind, countCorrect(v, truth), len(truth))
		}
	}

	merged := combine.Combine(len(truth), views)
	correct := 0
	for i, d := range merged {
		if d.Symbol == truth[i] {
			correct++
		}
	}
	best := combine.BestSingle(views)
	fmt.Printf("\nbest single view:  %3d/%d symbols correct\n",
		countCorrect(views[best], truth), len(truth))
	fmt.Printf("min-hint combined: %3d/%d symbols correct\n", correct, len(truth))
	fmt.Println("\nthe combiner never consulted the PHY — only the monotonic hints.")

	// Output:
	// one transmission, three receivers, independent collision bursts:
	//   AP1: acquired via preamble , 445/600 symbols correct
	//   AP2: acquired via preamble , 447/600 symbols correct
	//   AP3: acquired via preamble , 447/600 symbols correct
	//
	// best single view:  445/600 symbols correct
	// min-hint combined: 540/600 symbols correct
	//
	// the combiner never consulted the PHY — only the monotonic hints.
}

// nibbles splits bytes into 4-bit symbols, low nibble first.
func nibbles(data []byte) []byte {
	out := make([]byte, 0, len(data)*2)
	for _, b := range data {
		out = append(out, b&0x0f, b>>4)
	}
	return out
}

// countCorrect counts v's decisions that match the transmitted symbols.
func countCorrect(v combine.View, truth []byte) int {
	n := 0
	for i, d := range v.Decisions {
		idx := v.MissingPrefix + i
		if idx < len(truth) && d.Symbol == truth[idx] {
			n++
		}
	}
	return n
}
