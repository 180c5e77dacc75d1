package chipseq

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// Published sequences from IEEE 802.15.4-2006 Table 24 (chip c0 first).
var published = map[byte]string{
	0:  "11011001110000110101001000101110",
	1:  "11101101100111000011010100100010",
	2:  "00101110110110011100001101010010",
	5:  "00110101001000101110110110011100",
	7:  "10011100001101010010001011101101",
	8:  "10001100100101100000011101111011",
	12: "00000111011110111000110010010110",
	15: "11001001011000000111011110111000",
}

func TestPublishedSequences(t *testing.T) {
	for sym, want := range published {
		if got := String(Codeword(sym)); got != want {
			t.Errorf("symbol %d:\n got  %s\n want %s", sym, got, want)
		}
	}
}

func TestAllCodewordsDistinct(t *testing.T) {
	seen := map[uint32]byte{}
	for s := byte(0); s < NumSymbols; s++ {
		cw := Codeword(s)
		if prev, dup := seen[cw]; dup {
			t.Fatalf("symbols %d and %d share codeword %s", prev, s, String(cw))
		}
		seen[cw] = s
	}
}

func TestRotationStructure(t *testing.T) {
	// Symbols 1..7 are 4-chip right rotations of their predecessor.
	for s := byte(1); s < 8; s++ {
		want := rotateRightChips(Codeword(s-1), 4)
		if Codeword(s) != want {
			t.Errorf("symbol %d is not a 4-chip rotation of symbol %d", s, s-1)
		}
	}
}

func TestConjugateStructure(t *testing.T) {
	// Symbols 8..15 differ from 0..7 exactly on the 16 odd-indexed chips.
	for s := byte(0); s < 8; s++ {
		a, b := Codeword(s), Codeword(s+8)
		if d := PairDistance(s, s+8); d != 16 {
			t.Errorf("conjugate distance(%d,%d) = %d, want 16", s, s+8, d)
		}
		for i := 0; i < ChipsPerSymbol; i += 2 {
			if ChipAt(a, i) != ChipAt(b, i) {
				t.Errorf("symbol %d vs %d differ at even chip %d", s, s+8, i)
			}
		}
	}
}

func TestMinPairDistance(t *testing.T) {
	// The 802.15.4 code book's minimum pairwise distance is what separates
	// "correct" (distance ~0-2) from "incorrect" (distance near min/2+) hints,
	// and it fixes the radius within which NearestHard trusts its guess.
	if min := MinPairDistance(); min != 12 {
		t.Errorf("MinPairDistance = %d, want 12 (IEEE 802.15.4-2006 Table 24)", min)
	}
	if uniqueRadius != 5 {
		t.Errorf("uniqueRadius = %d, want (12-1)/2 = 5", uniqueRadius)
	}
}

// TestGuessWindow pins what makes NearestHard's guess robust: the 16
// codewords' chips 1–10 are pairwise at least 3 apart, so for each
// codeword and each of its 32 one-chip corruptions the guess is the sent
// symbol and lies within the unique-decoding radius — no full search.
func TestGuessWindow(t *testing.T) {
	minDist := guessBits + 1
	for a := 0; a < NumSymbols; a++ {
		for b := a + 1; b < NumSymbols; b++ {
			minDist = min(minDist, bits.OnesCount32(guessWindow(codebook[a])^guessWindow(codebook[b])))
		}
	}
	if minDist != 3 {
		t.Errorf("guess windows are pairwise %d apart, want 3", minDist)
	}
	words := 0
	for s := byte(0); s < NumSymbols; s++ {
		for flip := -1; flip < ChipsPerSymbol; flip++ {
			w := Codeword(s)
			if flip >= 0 {
				w ^= 1 << uint(31-flip)
			}
			words++
			if g := guess[guessWindow(w)]; g != s || bits.OnesCount32(w^codebook[g]) > uniqueRadius {
				t.Errorf("symbol %d, chip %d flipped: guess %d", s, flip, g)
			}
		}
	}
	if words != NumSymbols*33 {
		t.Fatalf("checked %d words, want %d", words, NumSymbols*33)
	}
}

func TestNearestHardExact(t *testing.T) {
	for s := byte(0); s < NumSymbols; s++ {
		got, d := NearestHard(Codeword(s))
		if got != s || d != 0 {
			t.Errorf("NearestHard(codeword %d) = %d, dist %d", s, got, d)
		}
	}
}

func TestNearestHardFewChipErrors(t *testing.T) {
	// With fewer than MinPairDistance/2 chip errors, decoding must recover
	// the transmitted symbol and report exactly the number of flipped chips.
	maxFix := MinPairDistance()/2 - 1
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		s := byte(rng.Intn(NumSymbols))
		nerr := rng.Intn(maxFix + 1)
		cw := Codeword(s)
		flipped := map[int]bool{}
		for len(flipped) < nerr {
			flipped[rng.Intn(ChipsPerSymbol)] = true
		}
		for i := range flipped {
			cw ^= 1 << uint(31-i)
		}
		got, d := NearestHard(cw)
		if got != s {
			t.Fatalf("trial %d: %d chip errors decoded %d, want %d", trial, nerr, got, s)
		}
		if d != nerr {
			t.Fatalf("trial %d: distance %d, want %d", trial, d, nerr)
		}
	}
}

// nearestRef is the plain 16-way nearest-codeword search NearestHard must
// reproduce: strict < keeps the lowest symbol on ties.
func nearestRef(received uint32) (sym byte, dist int) {
	dist = ChipsPerSymbol + 1
	for s := byte(0); s < NumSymbols; s++ {
		if d := bits.OnesCount32(received ^ Codeword(s)); d < dist {
			sym, dist = s, d
		}
	}
	return sym, dist
}

// parityCheck compares NearestHard with nearestRef word by word, reports
// the first few mismatches in full and counts the rest. It stays off t on
// the hot path so the exhaustive sweep stays cheap.
type parityCheck struct {
	t          testing.TB
	words, bad int
}

func (p *parityCheck) check(w uint32) {
	p.words++
	gs, gd := NearestHard(w)
	ws, wd := nearestRef(w)
	if gs == ws && gd == wd {
		return
	}
	if p.bad++; p.bad <= 5 {
		p.t.Errorf("NearestHard(%08x) = (%d, %d), reference (%d, %d)", w, gs, gd, ws, wd)
	}
}

// TestNearestHardMatchesTournament checks NearestHard against the reference
// on every word within distance 6 of every codeword — one chip past the
// radius its shortcut trusts, where ties first appear — and on uniform
// random words, the collision case.
func TestNearestHardMatchesTournament(t *testing.T) {
	const maxFlips = 6
	balls := parityCheck{t: t}
	for s := byte(0); s < NumSymbols; s++ {
		cw := Codeword(s)
		for k := 0; k <= maxFlips; k++ {
			// Gosper's hack walks every 32-bit mask with k bits set.
			m := uint32(1)<<k - 1
			for {
				balls.check(cw ^ m)
				if k == 0 || m>>(ChipsPerSymbol-k) == 1<<k-1 {
					break
				}
				c := m & -m
				r := m + c
				m = ((r^m)>>2)/c | r
			}
		}
	}
	// Σ_{k≤6} C(32,k) = 1,149,017 words around each codeword.
	if want := NumSymbols * 1149017; balls.words != want {
		t.Fatalf("swept %d words, want %d", balls.words, want)
	}
	if balls.bad > 0 {
		t.Errorf("%d of %d words within distance %d of a codeword mismatch", balls.bad, balls.words, maxFlips)
	}
	random := parityCheck{t: t}
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 1<<20; i++ {
		random.check(rng.Uint32())
	}
	if random.bad > 0 {
		t.Errorf("%d of %d random words mismatch", random.bad, random.words)
	}
}

func FuzzNearestHardParity(f *testing.F) {
	for s := byte(0); s < NumSymbols; s++ {
		f.Add(Codeword(s))
		f.Add(Codeword(s) ^ 0x3F) // six flips: past the shortcut's radius
	}
	f.Add(uint32(0))
	f.Add(^uint32(0))
	f.Fuzz(func(t *testing.T, w uint32) {
		p := parityCheck{t: t}
		p.check(w)
	})
}

func TestNearestHardDistanceNeverExceedsErrors(t *testing.T) {
	// Whatever is received, the reported distance is at most the distance to
	// the transmitted codeword (nearest can only be closer).
	f := func(s uint8, noise uint32) bool {
		sym := s % NumSymbols
		rx := Codeword(sym) ^ noise
		_, d := NearestHard(rx)
		txDist := 0
		for i := 0; i < 32; i++ {
			txDist += int(noise>>uint(i)) & 1
		}
		return d <= txDist
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChipAt(t *testing.T) {
	cw := Codeword(0)
	for i, ch := range baseChips {
		want := int(ch - '0')
		if got := ChipAt(cw, i); got != want {
			t.Errorf("chip %d = %d, want %d", i, got, want)
		}
	}
}

func TestCodewordPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Codeword(16)
}

func TestStringRoundTrip(t *testing.T) {
	for s := byte(0); s < NumSymbols; s++ {
		str := String(Codeword(s))
		if len(str) != ChipsPerSymbol {
			t.Fatalf("length %d", len(str))
		}
		var cw uint32
		for i := 0; i < ChipsPerSymbol; i++ {
			if str[i] == '1' {
				cw |= 1 << uint(31-i)
			}
		}
		if cw != Codeword(s) {
			t.Errorf("round trip failed for symbol %d", s)
		}
	}
}

var benchSink int

// BenchmarkNearestHard times one despread per op over 4096 seeded words of
// each kind: clean codewords (distance 0, the shortcut's best case), sparse
// ones (1–3 chip errors, typical of a correctly received symbol, Fig. 3) and
// uniform random words (a collision, where the guess mostly misses). The ref
// row runs the 16-way tournament alone on the random words: the cost of
// every call without the shortcut.
func BenchmarkNearestHard(b *testing.B) {
	const n = 4096
	rng := rand.New(rand.NewSource(1))
	clean, sparse, random := make([]uint32, n), make([]uint32, n), make([]uint32, n)
	for i := range clean {
		clean[i] = Codeword(byte(rng.Intn(NumSymbols)))
		sparse[i] = clean[i]
		for k := 1 + rng.Intn(3); k > 0; {
			if bit := uint32(1) << rng.Intn(ChipsPerSymbol); sparse[i]&bit == clean[i]&bit {
				sparse[i] ^= bit
				k--
			}
		}
		random[i] = rng.Uint32()
	}
	for _, c := range []struct {
		name  string
		words []uint32
		f     func(uint32) (byte, int)
	}{
		{"clean", clean, NearestHard},
		{"sparse", sparse, NearestHard},
		{"random", random, NearestHard},
		{"ref", random, nearestSearch},
	} {
		b.Run(c.name, func(b *testing.B) {
			sink := 0
			for i := 0; i < b.N; i++ {
				s, d := c.f(c.words[i&(n-1)])
				sink += int(s) + d
			}
			benchSink = sink
		})
	}
}
