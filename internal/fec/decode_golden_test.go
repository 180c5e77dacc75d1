package fec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"ppr/internal/stats"
)

// decodeGoldenSHA256 is the digest of Decode's outputs over
// decodeGoldenInputs. It was recorded while the seed's SOVA decoder (two
// slice allocations per branch and a quadratic reliability window) still
// lived beside Decode and both produced identical outputs on every input,
// so the digest pins the seed's bits, reliabilities and ACS tie-breaking.
const decodeGoldenSHA256 = "2d3ef3fc430f89108cc4f984143774689084da14d058f376cdaf92562fa43d74"

// decodeGoldenInputs returns the golden's coded streams, in order: valid
// encodings at assorted lengths, clean and at four channel error rates;
// arbitrary non-codeword streams, which exercise branch-metric ties and
// the warm-up margins; all-zero and all-one streams (maximal ties); an odd
// length and a too-short stream (the error cases); and a 1500-byte payload
// with 3% channel errors.
func decodeGoldenInputs() [][]byte {
	var ins [][]byte
	rng := stats.NewRNG(123)
	randBits := func(n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = byte(rng.Intn(2))
		}
		return out
	}
	for _, nData := range []int{1, 4, 7, 32, 100, 333, 1024} {
		coded := Encode(randBits(nData))
		ins = append(ins, coded)
		for _, rate := range []float64{0.01, 0.05, 0.11, 0.25} {
			noisy := append([]byte(nil), coded...)
			for i := range noisy {
				if rng.Bool(rate) {
					noisy[i] ^= 1
				}
			}
			ins = append(ins, noisy)
		}
	}
	for _, nBranches := range []int{K - 1, K, 20, 77, 500} {
		ins = append(ins, randBits(nBranches*Rate))
	}
	ones := make([]byte, 60)
	for i := range ones {
		ones[i] = 1
	}
	ins = append(ins, make([]byte, 60), ones, []byte{1}, randBits((K-2)*Rate))

	rng = stats.NewRNG(888)
	data := make([]byte, 1500*8)
	for i := range data {
		data[i] = byte(rng.Intn(2))
	}
	coded := Encode(data)
	for i := range coded {
		if rng.Bool(0.03) {
			coded[i] ^= 1
		}
	}
	return append(ins, coded)
}

// decodeDigest hashes, per input, whether decode failed, then the decoded
// bits, then each reliability's float64 bits (little-endian).
func decodeDigest(decode func([]byte) (Result, error), ins [][]byte) string {
	h := sha256.New()
	var word [8]byte
	for _, in := range ins {
		res, err := decode(in)
		failed := byte(0)
		if err != nil {
			failed = 1
		}
		h.Write([]byte{failed})
		h.Write(res.Bits)
		for _, r := range res.Reliability {
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(r))
			h.Write(word[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDecodeGolden pins Decode bit for bit: decoded bits, every per-bit
// reliability and the error cases. Any change to the ACS recursion, its
// tie-breaking, the warm-up margins or the reliability window moves the
// digest.
func TestDecodeGolden(t *testing.T) {
	if got := decodeDigest(Decode, decodeGoldenInputs()); got != decodeGoldenSHA256 {
		t.Fatalf("Decode digest %s, want %s", got, decodeGoldenSHA256)
	}
}

// TestDecisionsFromResultIntegerHints pins DecisionsFromResult's hint range
// over the golden inputs: every hint is 16 minus an int32 metric margin,
// clamped at 0, so it is an integer in [0, 16] and fits a byte exactly.
func TestDecisionsFromResultIntegerHints(t *testing.T) {
	for k, in := range decodeGoldenInputs() {
		res, err := Decode(in)
		if err != nil {
			continue
		}
		for i, d := range DecisionsFromResult(res) {
			minRel := res.Reliability[4*i]
			for _, r := range res.Reliability[4*i+1 : 4*i+4] {
				minRel = math.Min(minRel, r)
			}
			h := float64(d.Hint)
			if h != math.Trunc(h) || h < 0 || h > maxReliability || h != math.Max(0, maxReliability-minRel) {
				t.Fatalf("input %d symbol %d: hint %v (least reliability %v)", k, i, h, minRel)
			}
		}
	}
}
