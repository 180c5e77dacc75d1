package fec

import (
	"bytes"
	"math"
	"testing"

	"ppr/internal/core/runlen"
	"ppr/internal/core/softphy"
	"ppr/internal/stats"
)

func TestEncodeLength(t *testing.T) {
	data := make([]byte, 100)
	coded := Encode(data)
	if len(coded) != EncodedLen(100) {
		t.Errorf("coded length %d, want %d", len(coded), EncodedLen(100))
	}
	if EncodedLen(100) != 2*(100+6) {
		t.Errorf("EncodedLen formula wrong: %d", EncodedLen(100))
	}
}

func TestEncodeKnownCatalogProperties(t *testing.T) {
	// The all-zero input must encode to all zeros (linear code).
	coded := Encode(make([]byte, 50))
	for i, b := range coded {
		if b != 0 {
			t.Fatalf("zero input produced nonzero coded bit at %d", i)
		}
	}
	// A single 1 produces the generator impulse response: 171/133 octal
	// interleaved. First branch with input 1: outputs parity(g0>>6)=1,
	// parity(g1>>6)=1.
	one := Encode([]byte{1})
	if one[0] != 1 || one[1] != 1 {
		t.Errorf("impulse first branch = %d%d, want 11", one[0], one[1])
	}
}

func TestDecodeCleanRoundTrip(t *testing.T) {
	rng := stats.NewRNG(1)
	for trial := 0; trial < 50; trial++ {
		n := 8 * (1 + rng.Intn(40))
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(rng.Intn(2))
		}
		res, err := Decode(Encode(data))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Bits, data) {
			t.Fatalf("trial %d: clean decode mismatch", trial)
		}
		for i, r := range res.Reliability {
			if r <= 0 {
				t.Fatalf("trial %d: clean bit %d has reliability %v", trial, i, r)
			}
		}
	}
}

func TestDecodeCorrectsScatteredErrors(t *testing.T) {
	// The K=7 code has free distance 10: it corrects well-separated
	// 1-2 bit error events.
	rng := stats.NewRNG(2)
	data := make([]byte, 400)
	for i := range data {
		data[i] = byte(rng.Intn(2))
	}
	coded := Encode(data)
	// Flip isolated coded bits 60 branches apart.
	for i := 10; i < len(coded); i += 120 {
		coded[i] ^= 1
	}
	res, err := Decode(coded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Bits, data) {
		t.Fatal("isolated coded-bit errors were not corrected")
	}
}

func TestDecodeBERImprovesOnChannel(t *testing.T) {
	// At a 4% channel BER the decoded BER must be far below it.
	rng := stats.NewRNG(3)
	const n = 20000
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(rng.Intn(2))
	}
	coded := Encode(data)
	for i := range coded {
		if rng.Bool(0.04) {
			coded[i] ^= 1
		}
	}
	res, err := Decode(coded)
	if err != nil {
		t.Fatal(err)
	}
	errs := 0
	for i := range data {
		if res.Bits[i] != data[i] {
			errs++
		}
	}
	ber := float64(errs) / n
	if ber > 0.004 {
		t.Errorf("decoded BER %v not well below channel BER 0.04", ber)
	}
	t.Logf("channel BER 0.040 -> decoded BER %.5f", ber)
}

func TestReliabilitySeparatesErrors(t *testing.T) {
	// SOVA property: bits decoded in error carry lower reliability than
	// correct bits, on average — the monotonicity contract's substance.
	rng := stats.NewRNG(4)
	var relCorrect, relWrong []float64
	for trial := 0; trial < 40; trial++ {
		n := 2000
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(rng.Intn(2))
		}
		coded := Encode(data)
		for i := range coded {
			if rng.Bool(0.08) { // heavy noise to force decode errors
				coded[i] ^= 1
			}
		}
		res, err := Decode(coded)
		if err != nil {
			t.Fatal(err)
		}
		for i := range data {
			if res.Bits[i] == data[i] {
				relCorrect = append(relCorrect, res.Reliability[i])
			} else {
				relWrong = append(relWrong, res.Reliability[i])
			}
		}
	}
	if len(relWrong) < 50 {
		t.Skipf("only %d decode errors; noise too weak", len(relWrong))
	}
	mc, mw := stats.Mean(relCorrect), stats.Mean(relWrong)
	if mc <= mw {
		t.Errorf("mean reliability of correct bits %v not above erroneous bits %v", mc, mw)
	}
	t.Logf("reliability: correct %.2f (n=%d), wrong %.2f (n=%d)", mc, len(relCorrect), mw, len(relWrong))
}

func TestDecodeRejectsBadLengths(t *testing.T) {
	if _, err := Decode(make([]byte, 7)); err == nil {
		t.Error("accepted odd coded length")
	}
	if _, err := Decode(make([]byte, 4)); err == nil {
		t.Error("accepted stream shorter than tail")
	}
}

func TestBitsBytesRoundTrip(t *testing.T) {
	rng := stats.NewRNG(5)
	for trial := 0; trial < 50; trial++ {
		data := make([]byte, 1+rng.Intn(100))
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		if !bytes.Equal(BytesFromBits(BitsFromBytes(data)), data) {
			t.Fatal("bit/byte round trip failed")
		}
	}
}

// TestBitsBytesRoundTripAllLengths is the pre-sizing property test: for
// every payload length 0..256, bytes -> bits -> bytes is the identity and
// the intermediate slices have exactly their final lengths.
func TestBitsBytesRoundTripAllLengths(t *testing.T) {
	rng := stats.NewRNG(321)
	for n := 0; n <= 256; n++ {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		bits := BitsFromBytes(data)
		if len(bits) != n*8 || len(bits) != cap(bits) {
			t.Fatalf("n=%d: bits len %d cap %d, want exactly %d", n, len(bits), cap(bits), n*8)
		}
		back := BytesFromBits(bits)
		if len(back) != n {
			t.Fatalf("n=%d: round trip length %d", n, len(back))
		}
		for i := range back {
			if back[i] != data[i] {
				t.Fatalf("n=%d byte %d: %#x != %#x", n, i, back[i], data[i])
			}
		}
	}
}

// TestDecisionsFromResultPreSized checks the conversion's exact output
// length and hint clamping across lengths.
func TestDecisionsFromResultPreSized(t *testing.T) {
	rng := stats.NewRNG(555)
	for _, nBits := range []int{0, 4, 8, 40, 400} {
		res := Result{
			Bits:        make([]byte, nBits),
			Reliability: make([]float64, nBits),
		}
		for i := range res.Bits {
			res.Bits[i] = byte(rng.Intn(2))
			res.Reliability[i] = float64(rng.Intn(40))
		}
		ds := DecisionsFromResult(res)
		if len(ds) != nBits/4 || len(ds) != cap(ds) {
			t.Fatalf("nBits=%d: decisions len %d cap %d", nBits, len(ds), cap(ds))
		}
		for i, d := range ds {
			wantSym := res.Bits[i*4]&1 | res.Bits[i*4+1]&1<<1 | res.Bits[i*4+2]&1<<2 | res.Bits[i*4+3]&1<<3
			if d.Symbol != wantSym {
				t.Fatalf("symbol %d: %d != %d", i, d.Symbol, wantSym)
			}
			minRel := math.Inf(1)
			for j := 0; j < 4; j++ {
				minRel = math.Min(minRel, res.Reliability[i*4+j])
			}
			wantHint := 16.0 - minRel
			if wantHint < 0 {
				wantHint = 0
			}
			if float64(d.Hint) != wantHint {
				t.Fatalf("hint %d: %v != %v", i, d.Hint, wantHint)
			}
		}
	}
}

func TestBytesFromBitsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BytesFromBits(make([]byte, 7))
}

func TestDecisionsFromResultContract(t *testing.T) {
	// Build the full coded-PHY → SoftPHY → labeling pipeline and verify
	// the downstream stack (labels, runs) works unchanged: the paper's
	// PHY-independence claim.
	rng := stats.NewRNG(6)
	payload := make([]byte, 60)
	for i := range payload {
		payload[i] = byte(rng.Intn(256))
	}
	dataBits := BitsFromBytes(payload)
	coded := Encode(dataBits)
	// Burst of channel errors in the middle third.
	for i := len(coded) / 3; i < len(coded)/2; i++ {
		if rng.Bool(0.25) {
			coded[i] ^= 1
		}
	}
	res, err := Decode(coded)
	if err != nil {
		t.Fatal(err)
	}
	ds := DecisionsFromResult(res)
	if len(ds) != len(payload)*2 {
		t.Fatalf("%d decisions for %d payload bytes", len(ds), len(payload))
	}
	// Label with a threshold chosen for this hint scale and verify the
	// bad region is flagged.
	labels := softphy.Threshold{Eta: maxReliability - 1}.LabelAll(0, ds)
	rs := runlen.FromLabels(labels)
	if err := rs.Validate(); err != nil {
		t.Fatal(err)
	}
	truthSyms := make([]byte, 0, len(payload)*2)
	for _, b := range payload {
		truthSyms = append(truthSyms, b&0x0f, b>>4)
	}
	missed, caught := 0, 0
	for i, d := range ds {
		if d.Symbol != truthSyms[i] {
			if labels[i] == softphy.Bad {
				caught++
			} else {
				missed++
			}
		}
	}
	if caught == 0 {
		t.Skip("burst did not survive decoding; nothing to catch")
	}
	if missed > caught {
		t.Errorf("coded-PHY hints missed %d symbol errors, caught %d", missed, caught)
	}
}

func TestHintMonotonicityAcrossNoise(t *testing.T) {
	// Mean hint must grow with channel noise for the coded PHY, as for
	// every other hint source.
	rng := stats.NewRNG(7)
	meanHint := func(ber float64) float64 {
		data := make([]byte, 4000)
		for i := range data {
			data[i] = byte(rng.Intn(2))
		}
		coded := Encode(data)
		for i := range coded {
			if rng.Bool(ber) {
				coded[i] ^= 1
			}
		}
		res, err := Decode(coded)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		ds := DecisionsFromResult(res)
		for _, d := range ds {
			sum += float64(d.Hint)
		}
		return sum / float64(len(ds))
	}
	clean, noisy := meanHint(0.001), meanHint(0.06)
	if clean >= noisy {
		t.Errorf("coded-PHY hint not monotone: clean %v >= noisy %v", clean, noisy)
	}
}

// scalarStep is one of Decode's butterfly ACS steps on int32 metrics,
// keeping only the metrics: the reference the lane trellis is held to.
func scalarStep(metric *[numStates]int32, rx int) {
	var next [numStates]int32
	bm := &butterflyBM[rx]
	for j := 0; j < numStates/2; j++ {
		m0, m1, a := metric[2*j], metric[2*j+1], bm[j]
		next[j] = min(m0+a, m1+2-a)
		next[j+numStates/2] = min(m0+2-a, m1+a)
	}
	*metric = next
}

// unpack reads the lane vector m at rotation k back into state order.
func (m *lanes) unpack(k int) [numStates]int32 {
	var out [numStates]int32
	for s := 0; s < numStates; s++ {
		l := (s<<k | s>>(K-1-k)) & (numStates - 1) // rotl₆(s, k)
		out[s] = int32(m[l/8] >> (8 * (l % 8)) & 0xFF)
	}
	return out
}

// TestCleanMetricsFixedPoint pins the table Repairs starts damaged blocks
// from: it is tiny, every entry is one error-free lane step from the last,
// the step after the final entry repeats the entry K−1 before it (so any
// later first error may start from one of the last K−1), and unpacked, each
// entry equals Decode's int32 metrics wherever the start reaches and holds
// at least unreachableLane where it does not.
func TestCleanMetricsFixedPoint(t *testing.T) {
	n := len(cleanLanes)
	if n < 2*(K-1) || n > 24 {
		t.Fatalf("%d clean lane vectors, want between 2(K−1) and 24", n)
	}
	var ref [numStates]int32
	for s := 1; s < numStates; s++ {
		ref[s] = math.MaxInt32 / 2 // trellis starts in state 0
	}
	for i := 0; i < n; i++ {
		got := cleanLanes[i].unpack(i % (K - 1))
		for s := range got {
			reachable := ref[s] < math.MaxInt32/4
			if reachable && got[s] != ref[s] || !reachable && got[s] < unreachableLane {
				t.Fatalf("cleanLanes[%d] state %d = %d, int32 trellis %d", i, s, got[s], ref[s])
			}
		}
		next := cleanLanes[i]
		if !next.step(i%(K-1), 0) {
			t.Fatalf("clean step %d moved state 0 off its p0 predecessor", i)
		}
		if i+1 < n && next != cleanLanes[i+1] {
			t.Fatalf("cleanLanes[%d] is not one clean step from [%d]", i+1, i)
		}
		if i+1 == n && next != cleanLanes[n-(K-1)] {
			t.Errorf("the step after cleanLanes[%d] is not cleanLanes[%d]", n-1, n-(K-1))
		}
		scalarStep(&ref, 0)
	}
	t.Logf("%d clean lane vectors", n)
}

// laneParity steps the lane trellis and Decode's int32 metrics side by
// side from the trellis start over the branch symbols rxs, normalising as
// Repairs does: after each step the lanes, unpacked, must equal the int32
// metrics minus the offset subtracted so far (states the start cannot reach
// yet must stay at or above unreachableLane), and state 0's p0 verdict
// must agree. It returns the total offset.
func laneParity(t *testing.T, rxs []int) int32 {
	t.Helper()
	m := cleanLanes[0]
	var ref [numStates]int32
	for s := 1; s < numStates; s++ {
		ref[s] = math.MaxInt32 / 2
	}
	offset := int32(0)
	for step, rx := range rxs {
		k := step % (K - 1)
		if k == 0 {
			offset += int32(m.normalize())
		}
		a := butterflyBM[rx][0]
		wantKeep := !(ref[1]+2-a < ref[0]+a)
		if keep := m.step(k, uint64(rx)); keep != wantKeep {
			t.Fatalf("branches %v, step %d: lane keep %v, int32 %v", rxs[:step+1], step, keep, wantKeep)
		}
		scalarStep(&ref, rx)
		got := m.unpack((step + 1) % (K - 1))
		for s := range got {
			if ref[s] >= math.MaxInt32/4 {
				if got[s] < unreachableLane {
					t.Fatalf("branches %v: unreachable state %d reads %d", rxs[:step+1], s, got[s])
				}
			} else if got[s]+offset != ref[s] {
				t.Fatalf("branches %v, state %d: lane %d + offset %d, int32 %d", rxs[:step+1], s, got[s], offset, ref[s])
			}
		}
	}
	return offset
}

// TestLaneStepMatchesScalar holds the lane trellis to Decode's int32
// metrics: over every branch sequence of the warm-up (K−1 steps, where
// capped unreachable states meet reachable ones) and one step past it, and
// over long random runs, sparse ones taking metric[0] past 255 through
// the normalisation.
func TestLaneStepMatchesScalar(t *testing.T) {
	rxs := make([]int, K)
	for code := 0; code < 1<<(2*K); code++ {
		for i := range rxs {
			rxs[i] = code >> (2 * i) & 0b11
		}
		laneParity(t, rxs)
	}
	rng := stats.NewRNG(26)
	rxs = make([]int, 2400)
	for trial := 0; trial < 100; trial++ {
		for i := range rxs {
			rxs[i] = rng.Intn(4)
			if trial%2 == 0 && rng.Intn(4) != 0 {
				rxs[i] = 0 // sparse errors: metric[0] climbs slowly
			}
		}
		if offset := laneParity(t, rxs); offset <= 255 {
			t.Fatalf("trial %d: offset %d, want metric[0] past 255", trial, offset)
		}
	}
}
