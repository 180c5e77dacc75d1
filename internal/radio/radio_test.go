package radio

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"ppr/internal/bitutil"
	"ppr/internal/stats"
)

func TestDBmMWRoundTrip(t *testing.T) {
	for _, dbm := range []float64{-100, -30, 0, 10} {
		if got := MWToDBm(DBmToMW(dbm)); math.Abs(got-dbm) > 1e-9 {
			t.Errorf("round trip %v -> %v", dbm, got)
		}
	}
	if !math.IsInf(MWToDBm(0), -1) {
		t.Error("MWToDBm(0) should be -Inf")
	}
}

func TestRxPowerMonotoneInDistance(t *testing.T) {
	p := DefaultParams()
	prev := math.Inf(1)
	for d := 1.0; d < 200; d += 1 {
		rx := p.RxPowerDBm(d, 0)
		if rx > prev {
			t.Fatalf("rx power increased with distance at %v ft", d)
		}
		prev = rx
	}
}

func TestRxPowerClampsBelowOneFoot(t *testing.T) {
	p := DefaultParams()
	if p.RxPowerDBm(0.1, 0) != p.RxPowerDBm(1, 0) {
		t.Error("distances below 1 ft should clamp")
	}
}

func TestRxPowerShadowing(t *testing.T) {
	p := DefaultParams()
	if p.RxPowerDBm(10, 6)-p.RxPowerDBm(10, 0) != 6 {
		t.Error("shadowing should add in dB")
	}
}

func TestChipErrProbLimits(t *testing.T) {
	if got := ChipErrProb(0); got != 0.5 {
		t.Errorf("ChipErrProb(0) = %v", got)
	}
	if got := ChipErrProb(-1); got != 0.5 {
		t.Errorf("negative SINR should give 0.5, got %v", got)
	}
	if got := ChipErrProb(100); got > 1e-9 {
		t.Errorf("high SINR should give ~0 error, got %v", got)
	}
}

func TestChipErrProbMonotone(t *testing.T) {
	prev := 0.6
	for s := 0.01; s < 50; s *= 1.3 {
		p := ChipErrProb(s)
		if p > prev {
			t.Fatalf("chip error rate increased with SINR at %v", s)
		}
		if p < 0 || p > 0.5 {
			t.Fatalf("chip error rate %v out of [0,0.5]", p)
		}
		prev = p
	}
}

func TestChipErrProbKnownPoint(t *testing.T) {
	// At SINR = 1 (0 dB): Q(sqrt(2)) ≈ 0.0786.
	if got := ChipErrProb(1); math.Abs(got-0.0786) > 0.001 {
		t.Errorf("ChipErrProb(1) = %v, want ~0.0786", got)
	}
}

func chipsOfPattern(n int, v byte) *bitutil.ChipWords {
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

func TestSynthesizeNoiseOnly(t *testing.T) {
	rng := stats.NewRNG(1)
	out := new(Scratch).Synthesize(rng, 10000, nil, DBmToMW(-95))
	frac := float64(onesCount(out)) / 10000
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("noise chips not balanced: %v", frac)
	}
}

func TestSynthesizeCleanSignal(t *testing.T) {
	rng := stats.NewRNG(2)
	chips := chipsOfPattern(5000, 1)
	// 30 dB SNR: essentially error-free.
	out := new(Scratch).Synthesize(rng, 5000, []Overlap{{Start: 0, Chips: chips, PowerMW: DBmToMW(-60)}}, DBmToMW(-90))
	if errs := 5000 - onesCount(out); errs != 0 {
		t.Errorf("%d chip errors at 30 dB SNR", errs)
	}
}

func TestSynthesizeErrorRateMatchesModel(t *testing.T) {
	rng := stats.NewRNG(3)
	const n = 200000
	chips := chipsOfPattern(n, 0)
	noise := DBmToMW(-90)
	sig := DBmToMW(-87) // 3 dB SNR
	out := new(Scratch).Synthesize(rng, n, []Overlap{{Start: 0, Chips: chips, PowerMW: sig}}, noise)
	want := ChipErrProb(sig / noise)
	got := float64(onesCount(out)) / n
	if math.Abs(got-want) > 0.005 {
		t.Errorf("empirical chip error rate %v, model %v", got, want)
	}
}

func TestSynthesizeCaptureEffect(t *testing.T) {
	// A strong packet overlapping a weak one: the strong one's chips come
	// through nearly clean; the weak one's region is effectively noise
	// relative to its own pattern.
	rng := stats.NewRNG(4)
	const n = 20000
	strong := Overlap{Start: 0, Chips: chipsOfPattern(n, 1), PowerMW: DBmToMW(-50)}
	weak := Overlap{Start: 0, Chips: chipsOfPattern(n, 0), PowerMW: DBmToMW(-70)}
	out := new(Scratch).Synthesize(rng, n, []Overlap{strong, weak}, DBmToMW(-95))
	// Strong has 20 dB SINR over the weak: ≥ 99.9% of chips should be its.
	if frac := float64(onesCount(out)) / n; frac < 0.999 {
		t.Errorf("capture: strong signal only got %v of chips", frac)
	}
}

func TestSynthesizeComparableCollisionCorruptsBoth(t *testing.T) {
	rng := stats.NewRNG(5)
	const n = 20000
	a := Overlap{Start: 0, Chips: chipsOfPattern(n, 1), PowerMW: DBmToMW(-60)}
	b := Overlap{Start: 0, Chips: chipsOfPattern(n, 0), PowerMW: DBmToMW(-60.1)}
	out := new(Scratch).Synthesize(rng, n, []Overlap{a, b}, DBmToMW(-95))
	frac := float64(onesCount(out)) / n
	// At ~0 dB SINR the dominant still wins most chips but with substantial
	// errors (Q(sqrt(2)) ≈ 8%); neither side is clean.
	if frac > 0.97 || frac < 0.80 {
		t.Errorf("0 dB collision gave dominant fraction %v", frac)
	}
}

func TestSynthesizePartialOverlapSegments(t *testing.T) {
	// Transmission B overlaps only the tail of A; A's head must be clean,
	// A's tail corrupted.
	rng := stats.NewRNG(6)
	const n = 10000
	a := Overlap{Start: 0, Chips: chipsOfPattern(6000, 1), PowerMW: DBmToMW(-60)}
	b := Overlap{Start: 4000, Chips: chipsOfPattern(6000, 0), PowerMW: DBmToMW(-57)} // 3 dB stronger
	out := new(Scratch).Synthesize(rng, n, []Overlap{a, b}, DBmToMW(-95))
	headErrs := 0
	for t0 := 0; t0 < 4000; t0++ {
		if out.Bit(t0) != 1 {
			headErrs++
		}
	}
	if headErrs != 0 {
		t.Errorf("pre-collision head had %d errors", headErrs)
	}
	// During the overlap, B dominates: most chips are 0.
	bWins := 0
	for t0 := 4000; t0 < 6000; t0++ {
		if out.Bit(t0) == 0 {
			bWins++
		}
	}
	if frac := float64(bWins) / 2000; frac < 0.75 {
		t.Errorf("stronger collider only won %v of overlap chips", frac)
	}
	// After A ends, B alone continues, nearly clean.
	tailErrs := 0
	for t0 := 6000; t0 < 10000; t0++ {
		tailErrs += int(out.Bit(t0))
	}
	if frac := float64(tailErrs) / 4000; frac > 0.01 {
		t.Errorf("post-collision tail error rate %v", frac)
	}
}

func TestSynthesizeNegativeStartClips(t *testing.T) {
	rng := stats.NewRNG(7)
	o := Overlap{Start: -500, Chips: chipsOfPattern(1000, 1), PowerMW: DBmToMW(-50)}
	out := new(Scratch).Synthesize(rng, 1000, []Overlap{o}, DBmToMW(-95))
	// Chips 0..499 covered by the transmission's tail; 500.. is noise.
	for i := 0; i < 500; i++ {
		if out.Bit(i) != 1 {
			t.Fatalf("chip %d should be signal", i)
		}
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	mk := func() *bitutil.ChipWords {
		rng := stats.NewRNG(99)
		return new(Scratch).Synthesize(rng, 1000, []Overlap{{Start: 100, Chips: chipsOfPattern(500, 1), PowerMW: DBmToMW(-70)}}, DBmToMW(-90))
	}
	a, b := mk(), mk()
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("synthesis not deterministic under fixed seed")
	}
}

func TestPositionDist(t *testing.T) {
	if d := (Position{0, 0}).Dist(Position{3, 4}); d != 5 {
		t.Errorf("dist %v, want 5", d)
	}
}

func TestSynthesizeFadingDeterministic(t *testing.T) {
	mk := func() *bitutil.ChipWords {
		rng := stats.NewRNG(31)
		o := Overlap{Start: 0, Chips: chipsOfPattern(30000, 1), PowerMW: DBmToMW(-85)}
		return new(Scratch).SynthesizeFading(rng, 30000, []Overlap{o}, DBmToMW(-95), DefaultCoherenceChips)
	}
	a, b := mk(), mk()
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("fading synthesis not deterministic")
	}
}

func TestSynthesizeFadingZeroCoherenceFallsBack(t *testing.T) {
	rngA, rngB := stats.NewRNG(7), stats.NewRNG(7)
	o := Overlap{Start: 0, Chips: chipsOfPattern(5000, 1), PowerMW: DBmToMW(-60)}
	a := new(Scratch).SynthesizeFading(rngA, 5000, []Overlap{o}, DBmToMW(-95), 0)
	b := new(Scratch).Synthesize(rngB, 5000, []Overlap{o}, DBmToMW(-95))
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("coherence 0 should match unfaded synthesis exactly")
	}
}

func TestSynthesizeFadingBlockStructure(t *testing.T) {
	// On a marginal link, chip errors must cluster by coherence block:
	// some blocks nearly clean, some heavily degraded — not a uniform
	// smear.
	rng := stats.NewRNG(8)
	const nBlocks = 200
	const n = nBlocks * 4096
	o := Overlap{Start: 0, Chips: chipsOfPattern(n, 1), PowerMW: DBmToMW(-91)} // 4 dB mean SNR
	out := new(Scratch).SynthesizeFading(rng, n, []Overlap{o}, DBmToMW(-95), 4096)
	clean, degraded := 0, 0
	for blk := 0; blk < nBlocks; blk++ {
		errs := 4096 - onesCount(out.Slice(blk*4096, (blk+1)*4096))
		frac := float64(errs) / 4096
		if frac < 0.005 {
			clean++
		}
		if frac > 0.10 {
			degraded++
		}
	}
	if clean == 0 {
		t.Error("no clean fade blocks at 4 dB mean SNR")
	}
	if degraded == 0 {
		t.Error("no heavily degraded blocks at 4 dB mean SNR with Rician K=2")
	}
	t.Logf("fade blocks: %d clean, %d degraded of %d", clean, degraded, nBlocks)
}

func TestRicianFadeUnitMean(t *testing.T) {
	rng := stats.NewRNG(9)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		f := ricianPowerFade(rng, RicianK)
		if f < 0 {
			t.Fatal("negative fade power")
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-1) > 0.01 {
		t.Errorf("Rician fade mean %v, want ~1", mean)
	}
}

func TestRicianKControlsSpread(t *testing.T) {
	// Larger K concentrates the fade around 1 (less variance).
	variance := func(k float64) float64 {
		rng := stats.NewRNG(10)
		const n = 100000
		var sum, sq float64
		for i := 0; i < n; i++ {
			f := ricianPowerFade(rng, k)
			sum += f
			sq += f * f
		}
		mean := sum / n
		return sq/n - mean*mean
	}
	if v1, v10 := variance(1), variance(10); v10 >= v1 {
		t.Errorf("variance did not shrink with K: K=1 %v, K=10 %v", v1, v10)
	}
}

// segment is one span forEachSegment reports: its bounds, the dominant
// overlap's index (-1 on noise) and the bits of the total active power.
type segment struct {
	lo, hi, dom int
	total       uint64
}

// quadraticSegments is the per-span scan the sweep replaced, kept as its
// oracle: boundaries from every overlap's entry and exit inside (0, n),
// sorted and deduplicated, then every overlap tested against every span,
// summing active powers in index order and keeping the first maximum.
func quadraticSegments(n int, overlaps []Overlap) []segment {
	bounds := []int{0, n}
	for _, o := range overlaps {
		if s := o.Start; s > 0 && s < n {
			bounds = append(bounds, s)
		}
		if e := o.End(); e > 0 && e < n {
			bounds = append(bounds, e)
		}
	}
	slices.Sort(bounds)
	bounds = slices.Compact(bounds)
	var segs []segment
	for bi := 0; bi+1 < len(bounds); bi++ {
		lo, hi := bounds[bi], bounds[bi+1]
		dom := -1
		var total float64
		for i := range overlaps {
			o := &overlaps[i]
			if o.Start <= lo && o.End() >= hi {
				total += o.PowerMW
				if dom < 0 || o.PowerMW > overlaps[dom].PowerMW {
					dom = i
				}
			}
		}
		segs = append(segs, segment{lo, hi, dom, math.Float64bits(total)})
	}
	return segs
}

// sweepSegments records what s.forEachSegment reports.
func sweepSegments(s *Scratch, n int, overlaps []Overlap) []segment {
	var segs []segment
	s.forEachSegment(n, overlaps, func(lo, hi int, dom *Overlap, total float64) {
		d := -1
		for i := range overlaps {
			if dom == &overlaps[i] {
				d = i
			}
		}
		segs = append(segs, segment{lo, hi, d, math.Float64bits(total)})
	})
	return segs
}

// randomOverlaps draws k overlaps around an n-chip window: starts before,
// inside and past it, lengths from zero to past the window, starts and
// ends that coincide, and powers from a small set so that equal-power
// ties are common.
func randomOverlaps(rng *stats.RNG, n, k int) []Overlap {
	powers := []float64{1, 2, 2, 3.5, 1e-3}
	var os []Overlap
	for range k {
		start := rng.Intn(n+200) - 100
		if len(os) > 0 && rng.Bool(0.3) {
			prev := os[rng.Intn(len(os))]
			start = []int{prev.Start, prev.End()}[rng.Intn(2)]
		}
		length := rng.Intn(n/2 + 1)
		if rng.Bool(0.15) {
			length = 0
		}
		os = append(os, Overlap{Start: start, Chips: bitutil.NewChipWords(length), PowerMW: powers[rng.Intn(len(powers))]})
	}
	return os
}

// TestForEachSegmentMatchesQuadraticScan pins the sweep against the
// quadratic oracle: the same spans, the same dominant overlap and
// bit-identical total power, on table cases and on random overlap sets up
// to hundreds of fading blocks. One Scratch serves every case, so stale
// sweep state would show too.
func TestForEachSegmentMatchesQuadraticScan(t *testing.T) {
	blk := func(start, length int, p float64) Overlap {
		return Overlap{Start: start, Chips: bitutil.NewChipWords(length), PowerMW: p}
	}
	var fading []Overlap
	for i := range 240 {
		fading = append(fading, blk(-500+i*97, 4096, 1+float64(i%7)))
	}
	table := map[string]struct {
		n        int
		overlaps []Overlap
	}{
		"empty window":     {0, []Overlap{blk(0, 10, 1)}},
		"no overlaps":      {100, nil},
		"negative start":   {100, []Overlap{blk(-50, 80, 1)}},
		"past n":           {100, []Overlap{blk(60, 500, 1)}},
		"covers window":    {100, []Overlap{blk(-10, 200, 1), blk(20, 10, 2)}},
		"coincident":       {100, []Overlap{blk(10, 30, 1), blk(10, 30, 2), blk(40, 30, 1)}},
		"equal-power ties": {100, []Overlap{blk(0, 100, 2), blk(10, 50, 2), blk(5, 90, 2)}},
		"zero-length":      {100, []Overlap{blk(30, 0, 5), blk(0, 100, 1), blk(70, 0, 1)}},
		"outside":          {100, []Overlap{blk(-40, 40, 1), blk(100, 5, 1), blk(-9, 0, 1)}},
		"many blocks":      {20000, fading},
	}
	var s Scratch
	for name, c := range table {
		if got, want := sweepSegments(&s, c.n, c.overlaps), quadraticSegments(c.n, c.overlaps); !slices.Equal(got, want) {
			t.Errorf("%s: sweep %v, oracle %v", name, got, want)
		}
	}
	rng := stats.NewRNG(2907)
	for trial := range 2000 {
		n := 1 + rng.Intn(3000)
		os := randomOverlaps(rng, n, rng.Intn(40))
		if got, want := sweepSegments(&s, n, os), quadraticSegments(n, os); !slices.Equal(got, want) {
			t.Fatalf("trial %d (n %d, %d overlaps): sweep %v, oracle %v", trial, n, len(os), got, want)
		}
	}
}

// TestScratchReuseMatchesFresh synthesizes a small window after a large
// one on one Scratch — fewer chips, fewer overlaps, fewer fading blocks,
// and unaligned coherence views — and requires the chips, words past the
// window included, to equal a fresh Scratch's on the same seed.
func TestScratchReuseMatchesFresh(t *testing.T) {
	noise := DBmToMW(-95)
	tx := chipsOfPattern(20000, 1)
	for i := 0; i < tx.Len(); i += 3 {
		tx.FlipBit(i)
	}
	large := []Overlap{
		{Start: -300, Chips: tx, PowerMW: DBmToMW(-80)},
		{Start: 7000, Chips: tx, PowerMW: DBmToMW(-82)},
		{Start: 15000, Chips: tx.Slice(0, 9000), PowerMW: DBmToMW(-78)},
	}
	small := []Overlap{{Start: 90, Chips: tx.Slice(0, 5000), PowerMW: DBmToMW(-85)}}
	for _, coherence := range []int{0, DefaultCoherenceChips, 1000} {
		var reused Scratch
		reused.SynthesizeFading(stats.NewRNG(1), 40000, large, noise, coherence)
		got := reused.SynthesizeFading(stats.NewRNG(2), 5300, small, noise, coherence)
		var fresh Scratch
		want := fresh.SynthesizeFading(stats.NewRNG(2), 5300, small, noise, coherence)
		if got.Len() != want.Len() || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("coherence %d: a reused Scratch's small window differs from a fresh one's", coherence)
		}
		if want.Len() < 5300 || got.Peek64(5299) != want.Peek64(5299) {
			t.Errorf("coherence %d: bits past the reused window differ from a fresh one's", coherence)
		}
	}
}
