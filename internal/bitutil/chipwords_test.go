package bitutil

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"
	"testing"
)

// XORWith flips every chip of w where o has a 1. It panics on length
// mismatch. The final partial word is masked to Len(), so w may be a view
// sharing words with a parent stream: chips past the view are never
// touched, and unspecified bits past o's length never leak in.
func (w *ChipWords) XORWith(o *ChipWords) {
	if w.n != o.n {
		panic(fmt.Sprintf("bitutil: XORWith length mismatch %d != %d", w.n, o.n))
	}
	full := w.n / 64
	for i := 0; i < full; i++ {
		w.words[i] ^= o.words[i]
	}
	if rem := w.n % 64; rem > 0 {
		w.words[full] ^= o.words[full] & (^uint64(0) << uint(64-rem))
	}
}

// OnesCount returns the number of 1 chips.
func (w *ChipWords) OnesCount() int {
	full := w.n / 64
	c := 0
	for i := 0; i < full; i++ {
		c += bits.OnesCount64(w.words[i])
	}
	if rem := w.n % 64; rem > 0 {
		c += bits.OnesCount64(w.words[full] & (^uint64(0) << uint(64-rem)))
	}
	return c
}

// Clone returns an independent copy.
func (w *ChipWords) Clone() *ChipWords {
	out := &ChipWords{words: make([]uint64, len(w.words)), n: w.n}
	copy(out.words, w.words)
	return out
}

// refWord32 is the byte-slice reference for Word32: chip off at bit 31.
func refWord32(chips []byte, off int) uint32 {
	var v uint32
	for i := 0; i < 32; i++ {
		if chips[off+i] != 0 {
			v |= 1 << uint(31-i)
		}
	}
	return v
}

func patternBytes(n int, seed uint64) []byte {
	out := make([]byte, n)
	x := seed
	for i := range out {
		x = x*6364136223846793005 + 1442695040888963407
		out[i] = byte(x >> 62 & 1)
	}
	return out
}

func TestChipWordsPackUnpackRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 1000} {
		chips := patternBytes(n, uint64(n)+1)
		w := PackChipBytes(chips)
		if w.Len() != n {
			t.Fatalf("n=%d: Len %d", n, w.Len())
		}
		if got := w.Bytes(); !bytes.Equal(got, chips) {
			t.Fatalf("n=%d: round trip mismatch", n)
		}
		for i := 0; i < n; i++ {
			if w.Bit(i) != chips[i] {
				t.Fatalf("n=%d: Bit(%d) = %d want %d", n, i, w.Bit(i), chips[i])
			}
		}
	}
}

func TestChipWordsWord32MatchesReference(t *testing.T) {
	chips := patternBytes(300, 42)
	w := PackChipBytes(chips)
	for off := 0; off+32 <= len(chips); off++ {
		if got, want := w.Word32(off), refWord32(chips, off); got != want {
			t.Fatalf("Word32(%d) = %08x want %08x", off, got, want)
		}
	}
}

func TestChipWordsOfMatchesBytePath(t *testing.T) {
	words := []uint64{0xdeadbeef12345678, 0xffffffff00000000, 0, 0x8000000180000001}
	for count := 0; count <= len(words); count++ {
		var chips []byte
		for _, w := range words[:count] {
			for i := 0; i < 64; i++ {
				chips = append(chips, byte(w>>uint(63-i)&1))
			}
		}
		a, b := ChipWordsOf(words[:count]), PackChipBytes(chips)
		if a.Len() != b.Len() || !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("count=%d: adopted words diverge from byte packing", count)
		}
	}
}

func TestChipWordsCopyFromMatchesByteCopy(t *testing.T) {
	src := patternBytes(500, 7)
	sw := PackChipBytes(src)
	for _, tc := range []struct{ dstOff, srcOff, n int }{
		{0, 0, 500}, {0, 0, 0}, {1, 0, 64}, {0, 1, 64}, {63, 65, 130},
		{100, 3, 397}, {64, 64, 64}, {37, 41, 1}, {200, 199, 64},
	} {
		dst := patternBytes(600, 99)
		dw := PackChipBytes(dst)
		dw.CopyFrom(tc.dstOff, sw, tc.srcOff, tc.n)
		copy(dst[tc.dstOff:tc.dstOff+tc.n], src[tc.srcOff:tc.srcOff+tc.n])
		if !bytes.Equal(dw.Bytes(), dst) {
			t.Fatalf("CopyFrom(%d, src, %d, %d) diverges from byte copy", tc.dstOff, tc.srcOff, tc.n)
		}
	}
}

// bitCopy is the chip-by-chip reference for CopyFrom.
func bitCopy(dst *ChipWords, dstOff int, src *ChipWords, srcOff, n int) {
	for i := 0; i < n; i++ {
		dst.SetBit(dstOff+i, src.Bit(srcOff+i))
	}
}

// TestCopyFromMatchesBitCopy runs CopyFrom against a chip-by-chip copy for
// every destination and source alignment mod 64 and every length 0–200.
// Both sides are views whose words run past Len(): the destination's
// parent chips past the view must survive, and the source's stale bits
// past its view must not leak in.
func TestCopyFromMatchesBitCopy(t *testing.T) {
	srcParent := PackChipBytes(patternBytes(64+64+200+64, 5))
	dstParent := PackChipBytes(patternBytes(64+64+200+64, 6))
	for da := 0; da < 64; da++ {
		for sa := 0; sa < 64; sa++ {
			for n := 0; n <= 200; n++ {
				// A view ending at sa+n leaves its parent's later chips in
				// its last word; the copy reads only chips below Len().
				src := srcParent.Slice(64, 64+sa+n)
				got, want := dstParent.Clone(), dstParent.Clone()
				gv, wv := got.Slice(64, 64+da+n), want.Slice(64, 64+da+n)
				gv.CopyFrom(da, src, sa, n)
				bitCopy(wv, da, src, sa, n)
				if !slices.Equal(got.words, want.words) {
					t.Fatalf("CopyFrom(%d, src, %d, %d) diverges from the chip-by-chip copy", da, sa, n)
				}
			}
		}
	}
}

// TestChipWordsFillOr64ResetView pins the reuse primitives: Fill against
// SetBit over every short range of a view, Or64 at every offset, a Reset
// stream after full writes against a fresh one word for word, and View
// against Slice.
func TestChipWordsFillOr64ResetView(t *testing.T) {
	base := patternBytes(300, 8)
	for lo := 0; lo <= 200; lo += 7 {
		for hi := lo; hi <= 200; hi += 5 {
			for _, v := range []byte{0, 1} {
				got, want := PackChipBytes(base), PackChipBytes(base)
				got.Slice(64, 264).Fill(lo, hi, v)
				for i := lo; i < hi; i++ {
					want.SetBit(64+i, v)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("Fill(%d, %d, %d) diverges from SetBit", lo, hi, v)
				}
			}
		}
	}
	for off := 0; off+64 <= 300; off++ {
		w := NewChipWords(300)
		w.Or64(off, 0x8000000000000001)
		if w.OnesCount() != 2 || w.Bit(off) != 1 || w.Bit(off+63) != 1 {
			t.Fatalf("Or64(%d) set the wrong chips", off)
		}
	}
	var r ChipWords
	for _, n := range []int{500, 130, 0, 64, 200} {
		r.Reset(n)
		fresh := NewChipWords(n)
		r.Fill(0, n, 1)
		fresh.Fill(0, n, 1)
		if r.Len() != n || !slices.Equal(r.words, fresh.words) {
			t.Fatalf("Reset(%d) then a full write differs from a fresh stream", n)
		}
	}
	w := PackChipBytes(base)
	for _, lo := range []int{0, 64, 65, 130} {
		v := w.View(lo, 290)
		if !bytes.Equal(v.Bytes(), w.Slice(lo, 290).Bytes()) || !bytes.Equal(v.Bytes(), base[lo:290]) {
			t.Fatalf("View(%d, 290) differs from Slice", lo)
		}
	}
}

func TestChipWordsFillUniformBoundsAndSource(t *testing.T) {
	w := NewChipWords(300)
	draws := 0
	w.FillUniform(65, 230, func() uint64 { draws++; return ^uint64(0) })
	// ⌈165/64⌉ = 3 draws: 64 chips per word regardless of alignment.
	if draws != 3 {
		t.Errorf("FillUniform drew %d words for 165 chips, want 3", draws)
	}
	for i := 0; i < 300; i++ {
		want := byte(0)
		if i >= 65 && i < 230 {
			want = 1
		}
		if w.Bit(i) != want {
			t.Fatalf("chip %d = %d after fill of [65, 230)", i, w.Bit(i))
		}
	}
}

func TestChipWordsXORWithAndOnesCount(t *testing.T) {
	a := patternBytes(321, 1)
	b := patternBytes(321, 2)
	wa, wb := PackChipBytes(a), PackChipBytes(b)
	wa.XORWith(wb)
	want := 0
	for i := range a {
		if a[i] != b[i] {
			want++
		}
	}
	if got := wa.OnesCount(); got != want {
		t.Errorf("XOR+OnesCount = %d, byte Hamming distance %d", got, want)
	}
}

func TestChipWordsXORWithMasksSharedViewTail(t *testing.T) {
	// An aligned Slice shares its last word with the parent; XORWith on the
	// view must not flip parent chips past the view's end, and must ignore
	// 1-chips past the operand's length sharing the operand's last word.
	parent := PackChipBytes(patternBytes(128, 13))
	before := parent.Bytes()
	view := parent.Slice(0, 100)
	other := PackChipBytes(bytes.Repeat([]byte{1}, 128))
	view.XORWith(other.Slice(0, 100))
	after := parent.Bytes()
	for i := 0; i < 100; i++ {
		if after[i] != before[i]^1 {
			t.Fatalf("chip %d not flipped", i)
		}
	}
	for i := 100; i < 128; i++ {
		if after[i] != before[i] {
			t.Fatalf("parent chip %d past the view corrupted by XORWith", i)
		}
	}
}

func TestChipWordsSliceViewsAndCopies(t *testing.T) {
	chips := patternBytes(400, 5)
	w := PackChipBytes(chips)
	for _, tc := range []struct{ lo, hi int }{{0, 400}, {64, 400}, {64, 100}, {1, 399}, {65, 129}, {128, 128}} {
		s := w.Slice(tc.lo, tc.hi)
		if s.Len() != tc.hi-tc.lo {
			t.Fatalf("Slice(%d, %d).Len() = %d", tc.lo, tc.hi, s.Len())
		}
		if !bytes.Equal(s.Bytes(), chips[tc.lo:tc.hi]) {
			t.Fatalf("Slice(%d, %d) content mismatch", tc.lo, tc.hi)
		}
	}
	// Aligned slices share storage with the parent: a write through the
	// parent is visible in the view (the fading path relies on this being
	// zero-copy).
	view := w.Slice(64, 128)
	w.FlipBit(64)
	if view.Bit(0) != 1-chips[64] {
		t.Error("aligned Slice did not share the parent's words")
	}
}

func TestChipWordsSetBitAndFlipBit(t *testing.T) {
	w := NewChipWords(130)
	w.SetBit(0, 1)
	w.SetBit(129, 1)
	w.SetBit(64, 1)
	if w.OnesCount() != 3 {
		t.Fatalf("OnesCount %d after 3 sets", w.OnesCount())
	}
	w.FlipBit(64)
	w.SetBit(0, 0)
	if w.OnesCount() != 1 || w.Bit(129) != 1 {
		t.Fatalf("set/flip bookkeeping wrong: count %d", w.OnesCount())
	}
}

func TestChipWordsClone(t *testing.T) {
	w := PackChipBytes(patternBytes(100, 3))
	c := w.Clone()
	c.FlipBit(50)
	if w.Bit(50) == c.Bit(50) {
		t.Error("Clone shares storage with original")
	}
}

// refNextSet is the byte-slice reference for NextSet.
func refNextSet(chips []byte, lo, hi int) int {
	for lo < hi && chips[lo] == 0 {
		lo++
	}
	return lo
}

// TestChipWordsNextSetAndPeek64 checks NextSet on every range of sparse
// and dense streams, with ones at word edges, and Peek64 at every offset,
// including windows that run past the stream's end.
func TestChipWordsNextSetAndPeek64(t *testing.T) {
	sparse := make([]byte, 200)
	for _, i := range []int{0, 63, 64, 127, 150, 199} {
		sparse[i] = 1
	}
	for _, chips := range [][]byte{sparse, patternBytes(200, 9), make([]byte, 130)} {
		w := PackChipBytes(chips)
		for lo := 0; lo <= len(chips); lo++ {
			for hi := lo; hi <= len(chips); hi++ {
				if got, want := w.NextSet(lo, hi), refNextSet(chips, lo, hi); got != want {
					t.Fatalf("NextSet(%d, %d) = %d, want %d", lo, hi, got, want)
				}
			}
		}
		for off := 0; off < len(chips); off++ {
			got := w.Peek64(off)
			for i := 0; i < 64 && off+i < len(chips); i++ {
				if byte(got>>uint(63-i)&1) != chips[off+i] {
					t.Fatalf("Peek64(%d) chip %d mismatch", off, i)
				}
			}
		}
	}
}

func TestChipWordsPanics(t *testing.T) {
	w := NewChipWords(64)
	for name, fn := range map[string]func(){
		"negative-len": func() { NewChipWords(-1) },
		"bit-oob":      func() { w.Bit(64) },
		"word32-oob":   func() { w.Word32(33) },
		"copy-oob":     func() { w.CopyFrom(0, NewChipWords(10), 0, 11) },
		"fill-oob":     func() { w.FillUniform(0, 65, func() uint64 { return 0 }) },
		"fillv-oob":    func() { w.Fill(3, 65, 1) },
		"reset-neg":    func() { w.Reset(-1) },
		"xor-mismatch": func() { w.XORWith(NewChipWords(63)) },
		"slice-oob":    func() { w.Slice(10, 65) },
		"nextset-oob":  func() { w.NextSet(0, 65) },
		"nextset-rev":  func() { w.NextSet(5, 4) },
		"peek64-oob":   func() { w.Peek64(64) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// FuzzChipWords drives the packed type against the byte-slice reference:
// pack/unpack, Word32 at every offset, NextSet over an arbitrary range, an
// arbitrary CopyFrom, an XOR apply and OnesCount must all agree with the naive byte implementation.
func FuzzChipWords(f *testing.F) {
	f.Add([]byte{1, 0, 1, 1}, []byte{0, 1}, uint16(0), uint16(0), uint16(2))
	f.Add(make([]byte, 200), make([]byte, 130), uint16(40), uint16(3), uint16(100))
	f.Fuzz(func(t *testing.T, rawDst, rawSrc []byte, dstOff, srcOff, cnt uint16) {
		// Normalize to 0/1 chips.
		dst := make([]byte, len(rawDst))
		for i, v := range rawDst {
			dst[i] = v & 1
		}
		src := make([]byte, len(rawSrc))
		for i, v := range rawSrc {
			src[i] = v & 1
		}
		dw, sw := PackChipBytes(dst), PackChipBytes(src)
		if !bytes.Equal(dw.Bytes(), dst) {
			t.Fatal("pack/unpack mismatch")
		}
		for off := 0; off+32 <= len(dst); off++ {
			if dw.Word32(off) != refWord32(dst, off) {
				t.Fatalf("Word32(%d) mismatch", off)
			}
		}
		// NextSet over a fuzzed range against the byte scan.
		if lo, hi := int(dstOff), int(dstOff)+int(cnt); hi <= len(dst) {
			if got, want := dw.NextSet(lo, hi), refNextSet(dst, lo, hi); got != want {
				t.Fatalf("NextSet(%d, %d) = %d, want %d", lo, hi, got, want)
			}
		}
		// Bounded CopyFrom against the byte copy.
		d, s, n := int(dstOff), int(srcOff), int(cnt)
		if d <= len(dst) && s <= len(src) {
			if max := len(dst) - d; n > max {
				n = max
			}
			if max := len(src) - s; n > max {
				n = max
			}
			dw.CopyFrom(d, sw, s, n)
			copy(dst[d:d+n], src[s:s+n])
			if !bytes.Equal(dw.Bytes(), dst) {
				t.Fatalf("CopyFrom(%d, src, %d, %d) mismatch", d, s, n)
			}
		}
		// XOR apply + popcount against the byte reference.
		if len(dst) == len(src) {
			dw.XORWith(sw)
			want := 0
			for i := range dst {
				dst[i] ^= src[i]
				want += int(dst[i])
			}
			if !bytes.Equal(dw.Bytes(), dst) || dw.OnesCount() != want {
				t.Fatal("XORWith/OnesCount mismatch")
			}
		}
	})
}
