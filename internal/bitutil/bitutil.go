// Package bitutil provides low-level bit manipulation primitives used
// throughout the PPR stack: Hamming distance over words,
// nibble and bit (un)packing between byte payloads and symbol streams, the
// packed ChipWords chip-stream representation the channel simulator and
// receiver pipeline share, and a bit-granular reader/writer pair used by
// the PP-ARQ feedback codec, which must encode offsets and lengths in
// non-byte-aligned ⌈log₂ S⌉-bit fields.
package bitutil

import (
	"fmt"
	"math/bits"
)

// HammingDist32 returns the number of differing bits between a and b.
func HammingDist32(a, b uint32) int {
	return bits.OnesCount32(a ^ b)
}

// HammingDist64 returns the number of differing bits between a and b.
func HammingDist64(a, b uint64) int {
	return bits.OnesCount64(a ^ b)
}

// NibblesFromBytes expands data into its 4-bit symbols, low nibble first,
// matching the 802.15.4 convention that the least-significant symbol of each
// octet is transmitted first. Every byte yields exactly two symbols.
func NibblesFromBytes(data []byte) []byte {
	out := make([]byte, 0, len(data)*2)
	for _, b := range data {
		out = append(out, b&0x0f, b>>4)
	}
	return out
}

// BytesFromNibbles packs 4-bit symbols (low nibble first) back into bytes.
// It panics on odd-length input: callers always deal in whole octets.
func BytesFromNibbles(nibs []byte) []byte {
	if len(nibs)%2 != 0 {
		panic(fmt.Sprintf("bitutil: BytesFromNibbles odd symbol count %d", len(nibs)))
	}
	out := make([]byte, len(nibs)/2)
	for i := range out {
		out[i] = (nibs[2*i] & 0x0f) | (nibs[2*i+1] << 4)
	}
	return out
}

// Log2Ceil returns ⌈log₂ n⌉ for n ≥ 1; the number of bits needed to
// represent values in [0, n). Log2Ceil(1) == 0.
func Log2Ceil(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("bitutil: Log2Ceil of non-positive %d", n))
	}
	return bits.Len(uint(n - 1))
}

// Writer accumulates bits most-significant-first into a byte buffer. The
// zero value is ready to use.
type Writer struct {
	buf  []byte
	nbit int // total bits written
}

// WriteBits appends the low width bits of v, most-significant bit first.
// width must be in [0, 64].
func (w *Writer) WriteBits(v uint64, width int) {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("bitutil: WriteBits width %d out of range", width))
	}
	for i := width - 1; i >= 0; i-- {
		bit := byte(v>>uint(i)) & 1
		if w.nbit%8 == 0 {
			w.buf = append(w.buf, 0)
		}
		if bit != 0 {
			w.buf[len(w.buf)-1] |= 1 << uint(7-w.nbit%8)
		}
		w.nbit++
	}
}

// WriteBit appends a single bit.
func (w *Writer) WriteBit(b bool) {
	if b {
		w.WriteBits(1, 1)
	} else {
		w.WriteBits(0, 1)
	}
}

// WriteBytes appends p on a byte-aligned or unaligned boundary.
func (w *Writer) WriteBytes(p []byte) {
	for _, b := range p {
		w.WriteBits(uint64(b), 8)
	}
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.nbit }

// Bytes returns the accumulated buffer; the final byte is zero-padded.
func (w *Writer) Bytes() []byte { return w.buf }

// WriteGamma appends v ≥ 1 in Elias-gamma form: ⌊log₂ v⌋ zero bits, then
// v's ⌊log₂ v⌋+1 significant bits. Gamma coding gives the "log λ"-sized
// length fields of the PP-ARQ cost model (Eq. 4) a concrete, self-
// delimiting wire format: small values cost few bits, and no external
// width needs to be agreed on.
func (w *Writer) WriteGamma(v uint64) {
	if v < 1 {
		panic(fmt.Sprintf("bitutil: WriteGamma(%d); gamma codes start at 1", v))
	}
	n := bits.Len64(v) // number of significant bits
	w.WriteBits(0, n-1)
	w.WriteBits(v, n)
}

// Reader consumes bits most-significant-first from a byte buffer.
type Reader struct {
	buf  []byte
	pos  int // bit cursor
	fail bool
}

// NewReader returns a Reader over buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// ReadBits consumes width bits and returns them in the low bits of the
// result. On underflow it returns 0 and marks the reader failed; callers
// check Err once after a parse rather than at every call.
func (r *Reader) ReadBits(width int) uint64 {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("bitutil: ReadBits width %d out of range", width))
	}
	if r.pos+width > len(r.buf)*8 {
		r.fail = true
		return 0
	}
	var v uint64
	for i := 0; i < width; i++ {
		byteIdx := r.pos / 8
		bit := (r.buf[byteIdx] >> uint(7-r.pos%8)) & 1
		v = v<<1 | uint64(bit)
		r.pos++
	}
	return v
}

// ReadBit consumes one bit.
func (r *Reader) ReadBit() bool { return r.ReadBits(1) == 1 }

// ReadBytes consumes n bytes (8n bits).
func (r *Reader) ReadBytes(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(r.ReadBits(8))
	}
	if r.fail {
		return nil
	}
	return out
}

// ReadGamma consumes one Elias-gamma value. On malformed input or
// underflow it returns 0 (an impossible gamma value) and marks the reader
// failed.
func (r *Reader) ReadGamma() uint64 {
	zeros := 0
	for {
		if r.pos >= len(r.buf)*8 {
			r.fail = true
			return 0
		}
		if r.ReadBit() {
			break
		}
		zeros++
		if zeros > 63 {
			r.fail = true
			return 0
		}
	}
	// The leading 1 bit already consumed is the value's top bit.
	v := uint64(1)
	for i := 0; i < zeros; i++ {
		v = v<<1 | uint64(r.ReadBits(1))
	}
	if r.fail {
		return 0
	}
	return v
}

// GammaLen returns the encoded length of v in bits: 2⌊log₂ v⌋ + 1.
func GammaLen(v uint64) int {
	if v < 1 {
		panic(fmt.Sprintf("bitutil: GammaLen(%d)", v))
	}
	return 2*bits.Len64(v) - 1
}

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return len(r.buf)*8 - r.pos }

// Err reports whether any read ran past the end of the buffer.
func (r *Reader) Err() error {
	if r.fail {
		return fmt.Errorf("bitutil: read past end of %d-byte buffer", len(r.buf))
	}
	return nil
}
