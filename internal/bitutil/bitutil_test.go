package bitutil

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHammingDist32(t *testing.T) {
	cases := []struct {
		a, b uint32
		want int
	}{
		{0, 0, 0},
		{0xffffffff, 0, 32},
		{0b1010, 0b0101, 4},
		{0b1010, 0b1010, 0},
		{1 << 31, 0, 1},
	}
	for _, c := range cases {
		if got := HammingDist32(c.a, c.b); got != c.want {
			t.Errorf("HammingDist32(%#x,%#x) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestHammingDistSymmetric(t *testing.T) {
	f := func(a, b uint32) bool { return HammingDist32(a, b) == HammingDist32(b, a) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHammingDistTriangleInequality(t *testing.T) {
	f := func(a, b, c uint32) bool {
		return HammingDist32(a, c) <= HammingDist32(a, b)+HammingDist32(b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// HammingDistBytes returns the number of differing bits between two
// equal-length byte slices. It panics if the lengths differ, because a
// distance between unequal-length words is undefined in this codebase.
func HammingDistBytes(a, b []byte) int {
	if len(a) != len(b) {
		panic(fmt.Sprintf("bitutil: HammingDistBytes length mismatch %d != %d", len(a), len(b)))
	}
	d := 0
	for i := range a {
		d += bits.OnesCount8(a[i] ^ b[i])
	}
	return d
}

func TestHammingDistBytes(t *testing.T) {
	if got := HammingDistBytes([]byte{0xff, 0x00}, []byte{0x00, 0xff}); got != 16 {
		t.Errorf("got %d, want 16", got)
	}
	if got := HammingDistBytes(nil, nil); got != 0 {
		t.Errorf("got %d, want 0", got)
	}
}

func TestHammingDistBytesPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	HammingDistBytes([]byte{1}, []byte{1, 2})
}

func TestNibbleRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		return bytes.Equal(BytesFromNibbles(NibblesFromBytes(data)), data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNibbleOrderLowFirst(t *testing.T) {
	nibs := NibblesFromBytes([]byte{0xA5})
	if nibs[0] != 0x5 || nibs[1] != 0xA {
		t.Errorf("expected low nibble first, got %v", nibs)
	}
}

func TestNibbleCount(t *testing.T) {
	if n := len(NibblesFromBytes(make([]byte, 125))); n != 250 {
		t.Errorf("125 bytes should give 250 symbols, got %d", n)
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11, 1500 * 8: 14}
	for n, want := range cases {
		if got := Log2Ceil(n); got != want {
			t.Errorf("Log2Ceil(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestLog2CeilCoversRange(t *testing.T) {
	// 2^Log2Ceil(n) >= n and 2^(Log2Ceil(n)-1) < n for n > 1.
	for n := 1; n < 5000; n++ {
		k := Log2Ceil(n)
		if 1<<k < n {
			t.Fatalf("2^%d < %d", k, n)
		}
		if n > 1 && 1<<(k-1) >= n {
			t.Fatalf("2^%d >= %d; Log2Ceil not tight", k-1, n)
		}
	}
}

func TestBitWriterReaderRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		type field struct {
			v     uint64
			width int
		}
		n := rng.Intn(50) + 1
		fields := make([]field, n)
		var w Writer
		for i := range fields {
			width := rng.Intn(64) + 1
			v := rng.Uint64() & (^uint64(0) >> uint(64-width))
			fields[i] = field{v, width}
			w.WriteBits(v, width)
		}
		r := NewReader(w.Bytes())
		for i, f := range fields {
			if got := r.ReadBits(f.width); got != f.v {
				t.Fatalf("trial %d field %d: got %#x want %#x (width %d)", trial, i, got, f.v, f.width)
			}
		}
		if err := r.Err(); err != nil {
			t.Fatalf("unexpected read error: %v", err)
		}
	}
}

func TestBitWriterLen(t *testing.T) {
	var w Writer
	w.WriteBits(0x3, 2)
	w.WriteBits(0x1f, 5)
	if w.Len() != 7 {
		t.Errorf("Len = %d, want 7", w.Len())
	}
	if len(w.Bytes()) != 1 {
		t.Errorf("Bytes len = %d, want 1", len(w.Bytes()))
	}
	w.WriteBits(0xff, 8)
	if w.Len() != 15 || len(w.Bytes()) != 2 {
		t.Errorf("Len=%d bytes=%d, want 15/2", w.Len(), len(w.Bytes()))
	}
}

func TestBitReaderUnderflow(t *testing.T) {
	r := NewReader([]byte{0xab})
	_ = r.ReadBits(8)
	if err := r.Err(); err != nil {
		t.Fatalf("first read should succeed: %v", err)
	}
	if v := r.ReadBits(1); v != 0 {
		t.Errorf("underflow read returned %d, want 0", v)
	}
	if r.Err() == nil {
		t.Error("expected underflow error")
	}
}

func TestBitWriterMSBFirst(t *testing.T) {
	var w Writer
	w.WriteBits(0b101, 3)
	// 101xxxxx -> 0xa0
	if got := w.Bytes()[0]; got != 0xa0 {
		t.Errorf("got %#x, want 0xa0", got)
	}
}

func TestWriteReadBytesUnaligned(t *testing.T) {
	var w Writer
	w.WriteBit(true)
	payload := []byte{0xde, 0xad, 0xbe, 0xef}
	w.WriteBytes(payload)
	r := NewReader(w.Bytes())
	if !r.ReadBit() {
		t.Fatal("lost leading bit")
	}
	if got := r.ReadBytes(4); !bytes.Equal(got, payload) {
		t.Errorf("got % x, want % x", got, payload)
	}
}

func TestReadBytesUnderflowReturnsNil(t *testing.T) {
	r := NewReader([]byte{1, 2})
	if got := r.ReadBytes(3); got != nil {
		t.Errorf("expected nil on underflow, got % x", got)
	}
	if r.Err() == nil {
		t.Error("expected error")
	}
}

func TestRemaining(t *testing.T) {
	r := NewReader([]byte{0, 0, 0})
	if r.Remaining() != 24 {
		t.Fatalf("Remaining=%d want 24", r.Remaining())
	}
	r.ReadBits(5)
	if r.Remaining() != 19 {
		t.Fatalf("Remaining=%d want 19", r.Remaining())
	}
}

func TestGammaRoundTrip(t *testing.T) {
	var w Writer
	vals := []uint64{1, 2, 3, 4, 7, 8, 100, 1023, 1024, 1 << 40}
	for _, v := range vals {
		w.WriteGamma(v)
	}
	r := NewReader(w.Bytes())
	for _, v := range vals {
		if got := r.ReadGamma(); got != v {
			t.Fatalf("gamma round trip: got %d want %d", got, v)
		}
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

func TestGammaRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(40) + 1
		vals := make([]uint64, n)
		var w Writer
		for i := range vals {
			vals[i] = uint64(rng.Int63n(1<<30)) + 1
			w.WriteGamma(vals[i])
		}
		r := NewReader(w.Bytes())
		for i, v := range vals {
			if got := r.ReadGamma(); got != v {
				t.Fatalf("trial %d val %d: got %d want %d", trial, i, got, v)
			}
		}
	}
}

func TestGammaLen(t *testing.T) {
	cases := map[uint64]int{1: 1, 2: 3, 3: 3, 4: 5, 7: 5, 8: 7, 255: 15, 256: 17}
	for v, want := range cases {
		if got := GammaLen(v); got != want {
			t.Errorf("GammaLen(%d) = %d, want %d", v, got, want)
		}
		var w Writer
		w.WriteGamma(v)
		if w.Len() != want {
			t.Errorf("WriteGamma(%d) wrote %d bits, want %d", v, w.Len(), want)
		}
	}
}

func TestGammaZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var w Writer
	w.WriteGamma(0)
}

func TestGammaUnderflow(t *testing.T) {
	r := NewReader([]byte{0x00}) // eight zero bits: no terminating 1
	if v := r.ReadGamma(); v != 0 {
		t.Errorf("underflow gamma = %d", v)
	}
	if r.Err() == nil {
		t.Error("expected error")
	}
}
