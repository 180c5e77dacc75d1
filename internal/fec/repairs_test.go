package fec_test

import (
	"testing"

	"ppr/internal/bitutil"
	"ppr/internal/fec"
	"ppr/internal/obs"
	"ppr/internal/stats"
)

// Parity suite for the metric-only trellis: fec.Repairs must answer
// exactly what the FEC recovery schemes used to compute from a full
// decode — no error and every decoded bit zero.

// blockCoded is the coded length of one 25-byte FEC block (the schemes'
// default block size), 412 bits.
var blockCoded = fec.EncodedLen(25 * 8)

// decodesToZero is the reference answer: Decode succeeds and returns
// all-zero data.
func decodesToZero(coded []byte) bool {
	res, err := fec.Decode(coded)
	if err != nil {
		return false
	}
	for _, b := range res.Bits {
		if b != 0 {
			return false
		}
	}
	return true
}

// repairs runs fec.Repairs over a whole byte-per-bit stream, packed.
func repairs(coded []byte) bool {
	return fec.Repairs(bitutil.PackChipBytes(coded), 0, len(coded))
}

func assertRepairsParity(t *testing.T, what string, coded []byte) bool {
	t.Helper()
	want := decodesToZero(coded)
	if got := repairs(coded); got != want {
		t.Fatalf("%s (%d coded bits, weight %d): Repairs %v, Decode all-zero %v",
			what, len(coded), weight(coded), got, want)
	}
	return want
}

func weight(coded []byte) int {
	n := 0
	for _, b := range coded {
		n += int(b)
	}
	return n
}

// withErrors returns an n-bit all-zero pattern with ones at positions.
func withErrors(n int, positions ...int) []byte {
	out := make([]byte, n)
	for _, p := range positions {
		out[p] = 1
	}
	return out
}

// impulse is the codeword of a single 1 entering the encoder at data bit
// pos of a block: the free-distance (weight 10) path that diverges from
// state 0 at step pos and re-merges K steps later.
func impulse(nData, pos int) []byte {
	data := make([]byte, nData)
	data[pos] = 1
	return fec.Encode(data)
}

func TestRepairsShapes(t *testing.T) {
	// Malformed lengths are never repaired, as Decode errors on them.
	for _, n := range []int{1, 3, 2*fec.K - 1, blockCoded - 1, blockCoded + 1} {
		coded := make([]byte, n)
		if repairs(coded) {
			t.Errorf("odd length %d: Repairs true", n)
		}
		assertRepairsParity(t, "odd length", coded)
	}
	// 0, K−2, K−1 and K branches, all-zero and all-one: below K−1
	// branches the zero tail does not fit and Decode errors.
	for _, nb := range []int{0, fec.K - 2, fec.K - 1, fec.K} {
		zero := make([]byte, nb*fec.Rate)
		ones := make([]byte, nb*fec.Rate)
		for i := range ones {
			ones[i] = 1
		}
		if got := assertRepairsParity(t, "all-zero", zero); got != (nb >= fec.K-1) {
			t.Errorf("%d branches all-zero: repaired %v", nb, got)
		}
		assertRepairsParity(t, "all-one", ones)
	}
	// A full block with no errors decodes to zeros.
	if !assertRepairsParity(t, "all-zero block", make([]byte, blockCoded)) {
		t.Error("all-zero block not repaired")
	}
}

// TestRepairsLowWeightAlwaysRepaired: every non-zero codeword of the
// 171/133 code has weight ≥ d_free = 10, so an error pattern of weight ≤ 4
// stays strictly closer to the all-zero path than to any other, and
// Viterbi repairs it.
func TestRepairsLowWeightAlwaysRepaired(t *testing.T) {
	for p := 0; p < blockCoded; p++ {
		if !assertRepairsParity(t, "weight 1", withErrors(blockCoded, p)) {
			t.Fatalf("single error at bit %d not repaired", p)
		}
	}
	rng := stats.NewRNG(18)
	for w := 2; w <= 4; w++ {
		for i := 0; i < 300; i++ {
			pos := make([]int, w)
			for j := range pos {
				pos[j] = rng.Intn(blockCoded)
			}
			if !assertRepairsParity(t, "low weight", withErrors(blockCoded, pos...)) {
				t.Fatalf("weight-%d pattern at %v not repaired", w, pos)
			}
		}
	}
}

// TestRepairsEdgeBursts puts single bursts (solid and random-content) at
// the first and at the last branch: the warm-up steps, where only p0
// predecessors are reachable, and the terminating tail.
func TestRepairsEdgeBursts(t *testing.T) {
	rng := stats.NewRNG(7)
	for l := 1; l <= 40; l++ {
		for _, solid := range []bool{true, false} {
			head := make([]byte, blockCoded)
			tail := make([]byte, blockCoded)
			for i := 0; i < l; i++ {
				b := byte(1)
				if !solid {
					b = byte(rng.Intn(2))
				}
				head[i] = b
				tail[blockCoded-1-i] = b
			}
			assertRepairsParity(t, "head burst", head)
			assertRepairsParity(t, "tail burst", tail)
		}
	}
}

// TestRepairsStateZeroTies builds patterns whose state-0 ACS comparison
// ties: k of the 10 ones of an impulse codeword. With k = 5 the diverged
// path and the all-zero path reach state 0 with equal metrics; the
// reference rule keeps p0, so the block is repaired, and Decode's zero
// reliability on the surviving all-zero path confirms the tie happened.
// With k = 6 the diverged path wins and the block is lost.
func TestRepairsStateZeroTies(t *testing.T) {
	const nData = 25 * 8
	rng := stats.NewRNG(42)
	ties := 0
	for _, pos := range []int{0, 1, fec.K, nData / 2, nData - 2, nData - 1} {
		code := impulse(nData, pos)
		var ones []int
		for i, b := range code {
			if b == 1 {
				ones = append(ones, i)
			}
		}
		if len(ones) != 10 {
			t.Fatalf("impulse at %d has weight %d, want d_free 10", pos, len(ones))
		}
		for trial := 0; trial < 20; trial++ {
			perm := rng.Perm(len(ones))
			for _, k := range []int{5, 6} {
				pat := make([]byte, len(code))
				for _, i := range perm[:k] {
					pat[ones[i]] = 1
				}
				got := assertRepairsParity(t, "impulse subset", pat)
				if got != (k == 5) {
					t.Fatalf("impulse %d, %d of 10 ones: repaired %v", pos, k, got)
				}
				if k == 5 {
					res, _ := fec.Decode(pat)
					for _, r := range res.Reliability {
						if r == 0 {
							ties++
							break
						}
					}
				}
			}
		}
	}
	if ties == 0 {
		t.Error("no constructed pattern produced a zero-margin state-0 decision")
	}
}

// TestRepairsMatchesDecodeRandom sweeps random, bursty and Bernoulli
// block patterns across the repaired / not-repaired boundary.
func TestRepairsMatchesDecodeRandom(t *testing.T) {
	rng := stats.NewRNG(2007)
	repaired, lost := 0, 0
	count := func(ok bool) {
		if ok {
			repaired++
		} else {
			lost++
		}
	}
	for i := 0; i < 1500; i++ {
		pat := make([]byte, blockCoded)
		for j := range pat {
			if rng.Bool(0.005 + 0.06*float64(i%10)/10) {
				pat[j] = 1
			}
		}
		count(assertRepairsParity(t, "bernoulli", pat))
	}
	for i := 0; i < 1000; i++ {
		pat := make([]byte, blockCoded)
		for b := 0; b < 1+i%4; b++ {
			start, l := rng.Intn(blockCoded), 1+rng.Intn(16)
			for j := start; j < start+l && j < blockCoded; j++ {
				pat[j] = byte(rng.Intn(2))
			}
		}
		count(assertRepairsParity(t, "bursty", pat))
	}
	for i := 0; i < 200; i++ {
		pat := make([]byte, blockCoded)
		for j := range pat {
			pat[j] = byte(rng.Intn(2))
		}
		count(assertRepairsParity(t, "random", pat))
	}
	if repaired < 100 || lost < 100 {
		t.Errorf("sweep missed the boundary: %d repaired, %d lost", repaired, lost)
	}

	// Long ranges with sparse errors: the all-zero path's metric climbs
	// past what eight bits hold, so the lane trellis must renormalise.
	for i := 0; i < 12; i++ {
		n := 12000 + 2*rng.Intn(6000)
		pat := sparse(rng, n, 30+rng.Intn(10))
		if w := weight(pat); w <= 255 {
			t.Fatalf("long sparse pattern %d: weight %d, want past 255", i, w)
		}
		if i%3 == 2 { // and a loss after the metrics have climbed
			start := n - 400 + rng.Intn(300)
			for j := start; j < start+24; j++ {
				pat[j] = 1
			}
		}
		if got := assertRepairsParity(t, "long sparse", pat); got != (i%3 != 2) {
			t.Errorf("long sparse pattern %d (%d chips): repaired %v", i, n, got)
		}
	}

	// First errors at every phase of the lane rotation, and past the
	// clean-metric table, on both sides of the boundary.
	for t0 := 0; t0 < 48; t0++ {
		for trial := 0; trial < 12; trial++ {
			pat := make([]byte, blockCoded)
			pat[2*t0+rng.Intn(2)] = 1
			for j := 2*t0 + 2; j < blockCoded; j++ {
				if rng.Bool(0.04 * float64(trial%4)) {
					pat[j] = 1
				}
			}
			assertRepairsParity(t, "first-error phase", pat)
		}
	}

	// All-ones ranges of every length up to a few blocks' worth of steps.
	for nb := fec.K - 1; nb <= 120; nb++ {
		ones := make([]byte, nb*fec.Rate)
		for j := range ones {
			ones[j] = 1
		}
		assertRepairsParity(t, "all-ones", ones)
	}
}

// sparse returns an n-chip pattern with single errors gap to gap+7 chips
// apart (gap ≥ 30): each alone in its decoding window, so Viterbi repairs
// every one and the all-zero path's metric counts them all.
func sparse(rng *stats.RNG, n, gap int) []byte {
	pat := make([]byte, n)
	for p := rng.Intn(gap); p < n; p += gap + rng.Intn(8) {
		pat[p] = 1
	}
	return pat
}

// TestRepairsCountersAndAllocs pins the metric contract: fec.repair_blocks
// counts damaged well-formed blocks (a clean range answers before the
// trellis), fec.repair_steps the trellis steps run from the block's first
// error (to the end for a repaired block, fewer for one ruled out early),
// and Repairs allocates nothing with metrics on or off.
func TestRepairsCountersAndAllocs(t *testing.T) {
	old := obs.Default()
	defer obs.SetDefault(old)
	obs.SetDefault(nil)
	clean := bitutil.NewChipWords(blockCoded)
	hopeless := bitutil.NewChipWords(blockCoded)
	for i := 0; i < 40; i++ {
		hopeless.SetBit(i, 1)
	}
	late := bitutil.NewChipWords(blockCoded) // one error in branch 150
	late.SetBit(301, 1)
	if fec.Repairs(hopeless, 0, blockCoded) || !fec.Repairs(late, 0, blockCoded) {
		t.Fatal("40-bit solid burst repaired or single late error not")
	}
	for name, coded := range map[string]*bitutil.ChipWords{"clean": clean, "hopeless": hopeless, "late": late} {
		if a := testing.AllocsPerRun(20, func() { fec.Repairs(coded, 0, blockCoded) }); a != 0 {
			t.Errorf("%s block, metrics off: %.1f allocs per call", name, a)
		}
	}

	r := obs.New()
	obs.SetDefault(r)
	fec.Repairs(clean, 0, blockCoded)
	fec.Repairs(hopeless, 0, blockCoded)
	fec.Repairs(late, 0, blockCoded)
	fec.Repairs(hopeless, 0, fec.K) // odd length: rejected, not counted
	snap := r.Snapshot()
	if got := snap.Counters["fec.repair_blocks"]; got != 2 {
		t.Errorf("fec.repair_blocks = %d, want 2 (the damaged blocks)", got)
	}
	nb := int64(blockCoded / fec.Rate)
	lateSteps := nb - 150
	if got := snap.Counters["fec.repair_steps"]; got <= lateSteps || got >= lateSteps+nb {
		t.Errorf("fec.repair_steps = %d, want %d for the late error plus an early stop", got, lateSteps)
	}
	if a := testing.AllocsPerRun(20, func() { fec.Repairs(hopeless, 0, blockCoded) }); a != 0 {
		t.Errorf("metrics on: %.1f allocs per call", a)
	}
}

// FuzzRepairsParity fuzzes Repairs against the full decode over arbitrary
// coded streams (each input byte's low bit is one coded bit), decoding the
// range [lo, hi) of a longer packed stream: lo at an arbitrary even offset
// (so blocks start mid-word and their first error lands anywhere), hi
// mid-word, and random chips outside the range that Repairs must ignore.
func FuzzRepairsParity(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add(make([]byte, 2*(fec.K-1)))
	f.Add(withErrors(blockCoded, 0, 1, 411))
	tie := impulse(25*8, 100)
	for i, n := 0, 0; i < len(tie) && n < 5; i++ {
		if tie[i] == 1 {
			n++
			tie[i] = 0 // drop five of the ten ones: a state-0 tie
		}
	}
	f.Add(tie)
	// A long sparse range (the metrics climb past eight bits), the same with
	// a late loss, first errors at each phase of the lane rotation and past
	// the clean-metric table, and an all-ones range.
	long := sparse(stats.NewRNG(12), 12400, 36)
	f.Add(long)
	lost := append([]byte(nil), long...)
	for i := 12000; i < 12030; i++ {
		lost[i] = 1
	}
	f.Add(lost)
	for _, t0 := range []int{1, 2, 3, 4, 5, 30} {
		f.Add(withErrors(blockCoded, 2*t0+1, 2*t0+9, 2*t0+10, 2*t0+11, 2*t0+30))
	}
	ones := make([]byte, 600)
	for i := range ones {
		ones[i] = 1
	}
	f.Add(ones)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<14 {
			data = data[:1<<14]
		}
		coded := make([]byte, len(data))
		for i, b := range data {
			coded[i] = b & 1
		}
		assertRepairsParity(t, "fuzz", coded)
		if len(data) == 0 {
			return
		}
		// Embed coded at an even offset between random chips.
		rng := stats.NewRNG(uint64(len(data))*31 + uint64(data[0]))
		lo := 2 * int(data[len(data)-1]>>1)
		stream := make([]byte, lo+len(coded)+1+rng.Intn(64))
		for i := range stream {
			stream[i] = byte(rng.Intn(2))
		}
		copy(stream[lo:], coded)
		if got, want := fec.Repairs(bitutil.PackChipBytes(stream), lo, lo+len(coded)), decodesToZero(coded); got != want {
			t.Fatalf("range [%d, %d) of %d chips: Repairs %v, Decode all-zero %v", lo, lo+len(coded), len(stream), got, want)
		}
	})
}
