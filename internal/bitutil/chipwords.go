package bitutil

import (
	"fmt"
	"math/bits"
)

// ChipWords is a bit-packed chip stream: chip i lives at bit (63 - i%64) of
// word i/64, so chips pack MSB-first, exactly the order the PHY's 32-chip
// codewords use. It is the simulator's native on-air representation: the
// channel synthesizer writes it 64 chips per RNG draw, the frame
// synchronizer's XOR+popcount correlation reads it via Word32, and the
// despreader extracts codewords from it directly — no byte-per-chip stream
// exists between transmitter and decoder. Byte-per-chip slices survive only
// at the sample-level modem boundary (PackChipBytes / Bytes are the
// adapters).
//
// Methods that write ([lo, hi) spans, single bits) keep bits at positions
// >= Len() unspecified; every reader masks to the valid range, so views
// returned by Slice may share words with their parent.
type ChipWords struct {
	words []uint64
	n     int
}

// NewChipWords returns a zeroed stream of n chips.
func NewChipWords(n int) *ChipWords {
	if n < 0 {
		panic(fmt.Sprintf("bitutil: NewChipWords(%d)", n))
	}
	return &ChipWords{words: make([]uint64, (n+63)/64), n: n}
}

// PackChipBytes packs a byte-per-chip stream (any nonzero byte is chip
// value 1) — the adapter from the sample-level modem boundary.
func PackChipBytes(chips []byte) *ChipWords {
	w := NewChipWords(len(chips))
	for i, c := range chips {
		if c != 0 {
			w.words[i/64] |= 1 << uint(63-i%64)
		}
	}
	return w
}

// ChipWordsOf adopts words as a stream of 64·len(words) chips, chip 0 at
// bit 63 of words[0] — for producers that build whole words themselves,
// like the transmitter's byte-at-a-time spreader. The stream aliases words.
func ChipWordsOf(words []uint64) *ChipWords {
	return &ChipWords{words: words, n: 64 * len(words)}
}

// Len returns the stream length in chips.
func (w *ChipWords) Len() int { return w.n }

// Bit returns chip i (0 or 1).
func (w *ChipWords) Bit(i int) byte {
	if i < 0 || i >= w.n {
		panic(fmt.Sprintf("bitutil: Bit(%d) out of range for %d chips", i, w.n))
	}
	return byte(w.words[i/64] >> uint(63-i%64) & 1)
}

// SetBit sets chip i to v (any nonzero v is chip value 1).
func (w *ChipWords) SetBit(i int, v byte) {
	if i < 0 || i >= w.n {
		panic(fmt.Sprintf("bitutil: SetBit(%d) out of range for %d chips", i, w.n))
	}
	mask := uint64(1) << uint(63-i%64)
	if v != 0 {
		w.words[i/64] |= mask
	} else {
		w.words[i/64] &^= mask
	}
}

// FlipBit inverts chip i — the channel's sparse error application.
func (w *ChipWords) FlipBit(i int) {
	if i < 0 || i >= w.n {
		panic(fmt.Sprintf("bitutil: FlipBit(%d) out of range for %d chips", i, w.n))
	}
	w.words[i/64] ^= 1 << uint(63-i%64)
}

// Word32 extracts the 32 chips starting at chip offset off, chip off at bit
// 31 — the primitive the sliding sync correlation and the despreader are
// built on. It panics when the window runs past the stream.
func (w *ChipWords) Word32(off int) uint32 {
	if off < 0 || off+32 > w.n {
		panic(fmt.Sprintf("bitutil: Word32(%d) out of range for %d chips", off, w.n))
	}
	wi := off / 64
	sh := uint(off % 64)
	v := w.words[wi] << sh
	if sh > 0 && wi+1 < len(w.words) {
		v |= w.words[wi+1] >> (64 - sh)
	}
	return uint32(v >> 32)
}

// Word64 extracts the 64 chips starting at chip offset off, chip off at bit
// 63 — the word-parallel sibling of Word32. The sync scan streams the
// 320-chip preamble/postamble correlation over it 64 chips at a time, so a
// candidate offset costs a handful of XOR+popcounts instead of a per-chip
// walk. It panics when the window runs past the stream.
func (w *ChipWords) Word64(off int) uint64 {
	if off < 0 || off+64 > w.n {
		panic(fmt.Sprintf("bitutil: Word64(%d) out of range for %d chips", off, w.n))
	}
	wi := off / 64
	sh := uint(off % 64)
	v := w.words[wi] << sh
	if sh > 0 {
		v |= w.words[wi+1] >> (64 - sh)
	}
	return v
}

// Peek64 is Word64 for readers that stop at the stream's end on their own:
// the window may run past Len(), and chips at or past Len() read as
// unspecified values. A trellis walking a block two chips at a time loads
// one window per 32 steps with no end-of-stream case.
func (w *ChipWords) Peek64(off int) uint64 {
	if off < 0 || off >= w.n {
		panic(fmt.Sprintf("bitutil: Peek64(%d) out of range for %d chips", off, w.n))
	}
	return w.run64(off, 64)
}

// NextSet returns the first 1 chip in [lo, hi), or hi when there is none:
// one masked word test per 64 chips, so scanning an error pattern costs
// time in proportion to its words and its errors, not its chips.
func (w *ChipWords) NextSet(lo, hi int) int {
	if lo < 0 || hi > w.n || lo > hi {
		panic(fmt.Sprintf("bitutil: NextSet(%d, %d) out of range for %d chips", lo, hi, w.n))
	}
	if lo == hi {
		return hi
	}
	wi, last := lo/64, (hi-1)/64
	v := w.words[wi] & (^uint64(0) >> uint(lo%64))
	for wi < last && v == 0 {
		wi++
		v = w.words[wi]
	}
	if wi == last {
		v &= ^uint64(0) << uint(63-(hi-1)%64)
		if v == 0 {
			return hi
		}
	}
	return wi*64 + bits.LeadingZeros64(v)
}

// run64 extracts width (≤ 64) chips starting at off, left-aligned: the
// first chip of the run at bit 63. Bits past the run are unspecified;
// depositors mask them.
func (w *ChipWords) run64(off, width int) uint64 {
	wi := off / 64
	sh := uint(off % 64)
	v := w.words[wi] << sh
	if sh > 0 && wi+1 < len(w.words) {
		v |= w.words[wi+1] >> (64 - sh)
	}
	return v
}

// setRun deposits the top width (≤ 64) bits of v (left-aligned chips) at
// chip offset off, leaving every other bit untouched.
func (w *ChipWords) setRun(off, width int, v uint64) {
	mask := ^uint64(0)
	if width < 64 {
		mask <<= uint(64 - width)
		v &= mask
	}
	wi := off / 64
	sh := uint(off % 64)
	w.words[wi] = w.words[wi]&^(mask>>sh) | v>>sh
	if rem := int(sh) + width - 64; rem > 0 {
		w.words[wi+1] = w.words[wi+1]&^(mask<<(64-sh)) | v<<(64-sh)
	}
}

// CopyFrom copies n chips from src starting at srcOff into w starting at
// dstOff, word-at-a-time. Neither offset needs alignment: one masked run
// brings the destination to a word boundary, each whole destination word
// is then one funnel shift of two source words (a plain copy when the
// source is aligned too), and one masked run writes the tail. Chips of w
// outside [dstOff, dstOff+n) are untouched.
func (w *ChipWords) CopyFrom(dstOff int, src *ChipWords, srcOff, n int) {
	if n < 0 || dstOff < 0 || srcOff < 0 || dstOff+n > w.n || srcOff+n > src.n {
		panic(fmt.Sprintf("bitutil: CopyFrom(%d, src, %d, %d) out of range (dst %d chips, src %d)",
			dstOff, srcOff, n, w.n, src.n))
	}
	if head := min(-dstOff&63, n); head > 0 {
		w.setRun(dstOff, head, src.run64(srcOff, head))
		dstOff, srcOff, n = dstOff+head, srcOff+head, n-head
	}
	di, si, full := dstOff/64, srcOff/64, n/64
	if sh := uint(srcOff % 64); sh == 0 {
		copy(w.words[di:di+full], src.words[si:si+full])
	} else {
		// The last chip of the body lies in source word si+full.
		dst, s := w.words[di:di+full], src.words[si:si+full+1]
		for k := range dst {
			dst[k] = s[k]<<sh | s[k+1]>>(64-sh)
		}
	}
	if rem := n - 64*full; rem > 0 {
		w.setRun(dstOff+64*full, rem, src.run64(srcOff+64*full, rem))
	}
}

// Fill sets chips [lo, hi) to v (any nonzero v is chip value 1), a word at
// a time: the undecoded-symbol padding of an error pattern, and the
// clearing of a reused buffer.
func (w *ChipWords) Fill(lo, hi int, v byte) {
	if lo < 0 || hi > w.n || lo > hi {
		panic(fmt.Sprintf("bitutil: Fill(%d, %d) out of range for %d chips", lo, hi, w.n))
	}
	word := uint64(0)
	if v != 0 {
		word = ^uint64(0)
	}
	if head := min(-lo&63, hi-lo); head > 0 {
		w.setRun(lo, head, word)
		lo += head
	}
	for ; lo+64 <= hi; lo += 64 {
		w.words[lo/64] = word
	}
	if lo < hi {
		w.setRun(lo, hi-lo, word)
	}
}

// Or64 ORs the 64 chips of v (chip 0 at bit 63) into the stream at chip
// offset off. Chips of v that would land at or past Len() must be 0, so
// the word after off's is touched only when v spills into it.
func (w *ChipWords) Or64(off int, v uint64) {
	sh := uint(off % 64)
	w.words[off/64] |= v >> sh
	if spill := v << (64 - sh); spill != 0 {
		w.words[off/64+1] |= spill
	}
}

// FillUniform fills chips [lo, hi) from a word source (typically
// stats.RNG.Uint64): 64 chips per draw, the pure-noise fast path of channel
// synthesis. The number of draws is ⌈(hi-lo)/64⌉ regardless of alignment.
func (w *ChipWords) FillUniform(lo, hi int, next func() uint64) {
	if lo < 0 || hi > w.n || lo > hi {
		panic(fmt.Sprintf("bitutil: FillUniform(%d, %d) out of range for %d chips", lo, hi, w.n))
	}
	for t := lo; t < hi; t += 64 {
		width := hi - t
		if width > 64 {
			width = 64
		}
		w.setRun(t, width, next())
	}
}

// Slice returns the chips [lo, hi) as a stream: View's stream on the heap.
func (w *ChipWords) Slice(lo, hi int) *ChipWords {
	v := w.View(lo, hi)
	return &v
}

// View returns the chips [lo, hi) as a stream value. When lo is
// word-aligned the view shares the parent's words (zero copy, and no
// header on the heap — fading coherence blocks hit this path); otherwise
// the chips are copied out.
func (w *ChipWords) View(lo, hi int) ChipWords {
	if lo < 0 || hi > w.n || lo > hi {
		panic(fmt.Sprintf("bitutil: View(%d, %d) out of range for %d chips", lo, hi, w.n))
	}
	if lo%64 == 0 {
		return ChipWords{words: w.words[lo/64 : (hi+63)/64], n: hi - lo}
	}
	out := ChipWords{words: make([]uint64, (hi-lo+63)/64), n: hi - lo}
	out.CopyFrom(0, w, lo, hi-lo)
	return out
}

// Reset makes w an n-chip stream over its own words, reusing them when
// they have room. Chips keep stale values until written, which saves a
// producer that writes every chip (a synthesis window) the clearing
// NewChipWords costs; the bits past n in the last word are cleared, so
// once every chip is written the words equal those the same writes leave
// in NewChipWords(n). w must not be a view that shares a parent's words.
func (w *ChipWords) Reset(n int) {
	if n < 0 {
		panic(fmt.Sprintf("bitutil: Reset(%d)", n))
	}
	nw := (n + 63) / 64
	if cap(w.words) < nw {
		w.words = make([]uint64, nw)
	}
	w.words, w.n = w.words[:nw], n
	if nw > 0 {
		w.words[nw-1] = 0
	}
}

// SetWord sets chips [64i, 64i+64) to v, chip 64i at bit 63: the
// word-at-a-time writer for a producer that rewrites every word of a Reset
// stream (the transmitter's spread).
func (w *ChipWords) SetWord(i int, v uint64) { w.words[i] = v }

// Bytes unpacks to a byte-per-chip stream — the adapter back to the
// sample-level modem boundary.
func (w *ChipWords) Bytes() []byte {
	out := make([]byte, w.n)
	for i := range out {
		out[i] = byte(w.words[i/64] >> uint(63-i%64) & 1)
	}
	return out
}
