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

// PackWord32s packs a codeword sequence, 32 chips per entry, two entries
// per word — the transmitter-side fast path from spread symbols to the
// on-air stream.
func PackWord32s(cws []uint32) *ChipWords {
	w := NewChipWords(len(cws) * 32)
	for i, cw := range cws {
		if i%2 == 0 {
			w.words[i/2] = uint64(cw) << 32
		} else {
			w.words[i/2] |= uint64(cw)
		}
	}
	return w
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
// dstOff, word-at-a-time. Neither offset needs alignment; a 64-chip run
// costs two shifted word reads and at most two masked word writes.
func (w *ChipWords) CopyFrom(dstOff int, src *ChipWords, srcOff, n int) {
	if n < 0 || dstOff < 0 || srcOff < 0 || dstOff+n > w.n || srcOff+n > src.n {
		panic(fmt.Sprintf("bitutil: CopyFrom(%d, src, %d, %d) out of range (dst %d chips, src %d)",
			dstOff, srcOff, n, w.n, src.n))
	}
	for done := 0; done < n; done += 64 {
		width := n - done
		if width > 64 {
			width = 64
		}
		w.setRun(dstOff+done, width, src.run64(srcOff+done, width))
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

// XORWith flips every chip of w where o has a 1 — applying a packed error
// mask in word operations. It panics on length mismatch, like
// HammingDistBytes. The final partial word is masked to Len(), so w may be
// a view sharing words with a parent stream: chips past the view are never
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

// Slice returns the chips [lo, hi) as a stream. When lo is word-aligned the
// view shares the parent's words (zero copy — fading coherence blocks hit
// this path); otherwise the chips are copied out.
func (w *ChipWords) Slice(lo, hi int) *ChipWords {
	if lo < 0 || hi > w.n || lo > hi {
		panic(fmt.Sprintf("bitutil: Slice(%d, %d) out of range for %d chips", lo, hi, w.n))
	}
	if lo%64 == 0 {
		return &ChipWords{words: w.words[lo/64 : (hi+63)/64], n: hi - lo}
	}
	out := NewChipWords(hi - lo)
	out.CopyFrom(0, w, lo, hi-lo)
	return out
}

// Clone returns an independent copy.
func (w *ChipWords) Clone() *ChipWords {
	out := &ChipWords{words: make([]uint64, len(w.words)), n: w.n}
	copy(out.words, w.words)
	return out
}

// Bytes unpacks to a byte-per-chip stream — the adapter back to the
// sample-level modem boundary.
func (w *ChipWords) Bytes() []byte {
	out := make([]byte, w.n)
	for i := range out {
		out[i] = byte(w.words[i/64] >> uint(63-i%64) & 1)
	}
	return out
}
