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
			if d.Hint != wantHint {
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
			sum += d.Hint
		}
		return sum / float64(len(ds))
	}
	clean, noisy := meanHint(0.001), meanHint(0.06)
	if clean >= noisy {
		t.Errorf("coded-PHY hint not monotone: clean %v >= noisy %v", clean, noisy)
	}
}

// TestCleanMetricsFixedPoint pins the table Repairs starts damaged blocks
// from: it is tiny, every step is one error-free ACS step from the last,
// and its final vector is a fixed point, so any later first error may
// start from it.
func TestCleanMetricsFixedPoint(t *testing.T) {
	if n := len(cleanMetrics); n < K || n > 16 {
		t.Fatalf("%d clean metric vectors, want between K and 16", n)
	}
	for i := 1; i < len(cleanMetrics); i++ {
		var next [numStates]int32
		acsStep(&next, &cleanMetrics[i-1], 0)
		if next != cleanMetrics[i] {
			t.Fatalf("cleanMetrics[%d] is not one clean step from [%d]", i, i-1)
		}
	}
	last := len(cleanMetrics) - 1
	var next [numStates]int32
	acsStep(&next, &cleanMetrics[last], 0)
	if next != cleanMetrics[last] {
		t.Errorf("cleanMetrics[%d] is not a fixed point", last)
	}
	t.Logf("%d clean metric vectors", len(cleanMetrics))
}
