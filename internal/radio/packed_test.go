package radio_test

// Statistical-equivalence tests for the packed, sparse-error channel
// synthesizer. The word-level Synthesize draws randomness in a different
// pattern from the seed's byte-per-chip implementation (64 noise chips per
// word, one draw per flip instead of one per chip), so exact chip streams
// necessarily differ. What must NOT differ is the channel model itself:
// the flip rate at every SINR, the balance of noise chips, and the
// segment structure. These tests pin those invariants against the frozen
// reference implementation (internal/radio/synthref) and against the
// analytic model, which is what lets the figure-level baselines be
// refreshed once instead of chasing bit-parity with a representation that
// no longer exists.
//
// This file is an external test package so it can import synthref, which
// itself imports radio.

import (
	"math"
	"testing"

	"ppr/internal/bitutil"
	"ppr/internal/radio"
	"ppr/internal/radio/synthref"
	"ppr/internal/stats"
)

// patternChips builds an all-v packed chip stream.
func patternChips(n int, v byte) *bitutil.ChipWords {
	b := make([]byte, n)
	for i := range b {
		b[i] = v
	}
	return bitutil.PackChipBytes(b)
}

// onesCount returns the number of 1 chips in w.
func onesCount(w *bitutil.ChipWords) int {
	n := 0
	for i := w.NextSet(0, w.Len()); i < w.Len(); i = w.NextSet(i+1, w.Len()) {
		n++
	}
	return n
}

// flipRate measures the empirical chip error rate of a synthesized stream
// against an all-v transmitted pattern.
func flipRate(out *bitutil.ChipWords, v byte) float64 {
	ones := onesCount(out)
	if v != 0 {
		return float64(out.Len()-ones) / float64(out.Len())
	}
	return float64(ones) / float64(out.Len())
}

// TestSynthesizeFlipRateMatchesModelAcrossSINR sweeps the SINR range the
// simulator actually operates over — clean links, marginal links, 0 dB
// collisions, and the sub-noise regime where p saturates at 0.5 — and
// requires the packed synthesizer's empirical flip rate to sit within a
// CI-style band of ChipErrProb at every point. This is the guard that
// replaces bit-parity with the seed: the error *model* is unchanged even
// though the draw sequence is not.
func TestSynthesizeFlipRateMatchesModelAcrossSINR(t *testing.T) {
	const n = 400000
	noise := radio.DBmToMW(-95)
	chips := patternChips(n, 1)
	for i, sigDBm := range []float64{-75, -88, -92, -95, -98} {
		rng := stats.NewRNG(uint64(100 + i))
		sig := radio.DBmToMW(sigDBm)
		out := new(radio.Scratch).Synthesize(rng, n, []radio.Overlap{{Start: 0, Chips: chips, PowerMW: sig}}, noise)
		want := radio.ChipErrProb(sig / noise)
		got := flipRate(out, 1)
		// Binomial standard error plus a safety factor of 5.
		tol := 5*math.Sqrt(want*(1-want)/n) + 1e-4
		if math.Abs(got-want) > tol {
			t.Errorf("sig %v dBm: flip rate %v, model %v (tol %v)", sigDBm, got, want, tol)
		}
	}
}

// TestSynthesizeMatchesByteReferenceStatistically runs the packed and the
// frozen byte-per-chip synthesizer over the same mixed window (noise head,
// clean dominant, partial collision, noise tail) and requires their
// per-segment flip statistics to agree within sampling error.
func TestSynthesizeMatchesByteReferenceStatistically(t *testing.T) {
	const n = 320000
	noise := radio.DBmToMW(-95)
	a := radio.Overlap{Start: 40000, Chips: patternChips(200000, 1), PowerMW: radio.DBmToMW(-88)}
	b := radio.Overlap{Start: 160000, Chips: patternChips(120000, 0), PowerMW: radio.DBmToMW(-87)}
	overlaps := []radio.Overlap{a, b}

	packed := new(radio.Scratch).Synthesize(stats.NewRNG(7), n, overlaps, noise)
	ref := bitutil.PackChipBytes(synthref.Synthesize(stats.NewRNG(7), n, overlaps, noise))

	segments := []struct {
		name   string
		lo, hi int
	}{
		{"noise-head", 0, 40000},
		{"clean-a", 40000, 160000},
		{"collision", 160000, 240000},
		{"noise-tail", 280000, 320000},
	}
	for _, seg := range segments {
		w := seg.hi - seg.lo
		gp := float64(onesCount(packed.Slice(seg.lo, seg.hi))) / float64(w)
		gr := float64(onesCount(ref.Slice(seg.lo, seg.hi))) / float64(w)
		// Two independent binomial samples: tolerance ~5 joint standard
		// errors at worst-case p=0.5.
		tol := 5 * math.Sqrt(2*0.25/float64(w))
		if math.Abs(gp-gr) > tol {
			t.Errorf("%s: packed ones fraction %v vs reference %v (tol %v)", seg.name, gp, gr, tol)
		}
	}
}

// TestSynthesizeNoiseWordBalance checks the word-level noise fill for both
// global balance and absence of positional bias across word boundaries
// (every chip position modulo 64 must be uniform — a masking bug in the
// partial-word paths would show up here).
func TestSynthesizeNoiseWordBalance(t *testing.T) {
	const n = 64 * 4000
	rng := stats.NewRNG(11)
	out := new(radio.Scratch).Synthesize(rng, n, nil, radio.DBmToMW(-95))
	var byPos [64]int
	for i := 0; i < n; i++ {
		byPos[i%64] += int(out.Bit(i))
	}
	total := 0
	for pos, ones := range byPos {
		total += ones
		frac := float64(ones) / (n / 64)
		if frac < 0.42 || frac > 0.58 {
			t.Errorf("bit position %d: ones fraction %v", pos, frac)
		}
	}
	if frac := float64(total) / n; frac < 0.49 || frac > 0.51 {
		t.Errorf("overall noise balance %v", frac)
	}
}

// TestSynthesizeUnalignedSegmentsMatchModel places segment boundaries at
// adversarial offsets (mid-word, one off word edges) and verifies both the
// copied chips and the flip rate — the paths where the word-run masking
// must be exact.
func TestSynthesizeUnalignedSegmentsMatchModel(t *testing.T) {
	noise := radio.DBmToMW(-95)
	for _, start := range []int{1, 63, 64, 65, 127, 1000} {
		rng := stats.NewRNG(uint64(start))
		const txLen = 100000
		o := radio.Overlap{Start: start, Chips: patternChips(txLen, 1), PowerMW: radio.DBmToMW(-60)}
		n := start + txLen + 77
		out := new(radio.Scratch).Synthesize(rng, n, []radio.Overlap{o}, noise)
		// 35 dB SNR: the dominant region must be exactly the transmitted
		// pattern (flip probability ~1e-12).
		for i := start; i < start+txLen; i++ {
			if out.Bit(i) != 1 {
				t.Fatalf("start %d: chip %d corrupted in clean dominant region", start, i)
			}
		}
		// The surrounding noise must be balanced, not zero-filled.
		head := onesCount(out.Slice(0, start))
		tail := onesCount(out.Slice(start+txLen, n))
		if start > 32 && head == 0 {
			t.Errorf("start %d: noise head all zero", start)
		}
		if tail == 0 {
			t.Errorf("start %d: noise tail all zero", start)
		}
	}
}

// TestSynthesizeSharedBoundSegments pins the segment iterator's collapse of
// duplicate bounds (slices.Compact): two back-to-back transmissions share
// the bound at 5000, and each half must carry its own pattern, up to the
// flip rate its SINR gives.
func TestSynthesizeSharedBoundSegments(t *testing.T) {
	noise := radio.DBmToMW(-95)
	a := radio.Overlap{Start: 0, Chips: patternChips(5000, 1), PowerMW: radio.DBmToMW(-60)}
	b := radio.Overlap{Start: 5000, Chips: patternChips(5000, 0), PowerMW: radio.DBmToMW(-60)}
	out := new(radio.Scratch).Synthesize(stats.NewRNG(3), 10000, []radio.Overlap{a, b}, noise)
	p := radio.ChipErrProb(a.PowerMW / noise)
	// Allow 5 standard deviations of binomial spread plus one chip.
	tol := 5*math.Sqrt(5000*p*(1-p)) + 1 + 5000*p
	if ra, rb := flipRate(out.Slice(0, 5000), 1), flipRate(out.Slice(5000, 10000), 0); ra*5000 > tol || rb*5000 > tol {
		t.Errorf("halves off their patterns: flip rates %v and %v, model %v", ra, rb, p)
	}
}
