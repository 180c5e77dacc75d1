package feedback

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"ppr/internal/bitutil"
	"ppr/internal/core/chunkdp"
	"ppr/internal/stats"
)

// hugeDelta is a gamma-coded chunk offset that a plain int conversion
// wraps to −10, so the chunk would start at symbol −11.
const hugeDelta = ^uint64(0) - 9

// TestDecodeRejectsWrappingGamma: 64-bit gamma values must be bounded
// before they become ints. Previously both decoders accepted a chunk at
// StartSym −11 with a nil error, and a chunk count ≥ 2⁶³ wrapped negative
// and decoded as a chunkless message.
func TestDecodeRejectsWrappingGamma(t *testing.T) {
	const numSymbols = 10
	header := func(w *bitutil.Writer, request bool) {
		w.WriteBits(1, 16)
		w.WriteBits(numSymbols, 16)
		if request {
			w.WriteBit(false)
		}
	}
	for _, request := range []bool{true, false} {
		var chunk, count bitutil.Writer
		header(&chunk, request)
		chunk.WriteGamma(2) // one chunk
		chunk.WriteGamma(hugeDelta)
		chunk.WriteGamma(1)
		chunk.WriteBytes(make([]byte, 16)) // symbols and checksums to spare
		header(&count, request)
		count.WriteGamma(1<<63 + 1)
		count.WriteBytes(make([]byte, 16))
		for name, msg := range map[string][]byte{"offset": chunk.Bytes(), "count": count.Bytes()} {
			var err error
			if request {
				_, err = DecodeRequest(msg, DefaultChecksumBits)
			} else {
				_, err = DecodeResponse(msg, DefaultChecksumBits)
			}
			if !errors.Is(err, ErrChunkRange) {
				t.Errorf("request=%v, hostile %s: err = %v, want ErrChunkRange", request, name, err)
			}
		}
	}
}

// assertCanonical checks that an accepted message's re-encoding is the
// prefix of the input it was decoded from: every one of its bits matches,
// the final byte's zero padding aside.
func assertCanonical(t *testing.T, data, enc []byte, bits int) {
	t.Helper()
	if len(enc) != (bits+7)/8 || len(enc) > len(data) {
		t.Fatalf("re-encoding is %d bytes for %d bits from %d input bytes", len(enc), bits, len(data))
	}
	if len(enc) == 0 {
		return
	}
	last := len(enc) - 1
	mask := byte(0xff) << uint(8*len(enc)-bits)
	if !bytes.Equal(enc[:last], data[:last]) || enc[last] != data[last]&mask {
		t.Fatalf("re-encoding % x differs from input % x", enc, data[:len(enc)])
	}
}

// responseBits is the exact encoded size of a response (RequestBits'
// counterpart).
func responseBits(r Response, lambdaC int) int {
	bits := 32 + bitutil.GammaLen(uint64(len(r.Chunks))+1)
	prevEnd := 0
	var asChunks []chunkdp.Chunk
	for _, c := range r.Chunks {
		bits += bitutil.GammaLen(uint64(c.Start-prevEnd)+1) + bitutil.GammaLen(uint64(len(c.Syms))) + 4*len(c.Syms)
		prevEnd = c.End()
		asChunks = append(asChunks, chunkdp.Chunk{StartSym: c.Start, EndSym: c.End()})
	}
	for _, s := range Segments(r.NumSymbols, asChunks) {
		bits += ChecksumWidth(s.Len, lambdaC)
	}
	return bits
}

func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte{})
	f.Add(Request{Seq: 7, NumSymbols: 40, CRCVerified: true}.Encode(DefaultChecksumBits))
	rng := stats.NewRNG(11)
	for _, n := range []int{1, 50, 400} {
		f.Add(makeRequest(rng, n).Encode(DefaultChecksumBits))
	}
	var w bitutil.Writer
	w.WriteBits(1, 16)
	w.WriteBits(10, 16)
	w.WriteBit(false)
	w.WriteGamma(2)
	w.WriteGamma(hugeDelta)
	w.WriteGamma(1)
	w.WriteBytes(make([]byte, 8))
	f.Add(w.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRequest(data, DefaultChecksumBits)
		if err != nil {
			return
		}
		enc := r.Encode(DefaultChecksumBits)
		assertCanonical(t, data, enc, RequestBits(r, DefaultChecksumBits))
		back, err := DecodeRequest(enc, DefaultChecksumBits)
		if err != nil || !reflect.DeepEqual(back, r) {
			t.Fatalf("re-encoded request decodes to %+v, %v; want %+v", back, err, r)
		}
	})
}

func FuzzDecodeResponse(f *testing.F) {
	f.Add([]byte{})
	rng := stats.NewRNG(12)
	for _, n := range []int{1, 50, 400} {
		f.Add(makeResponse(rng, n).Encode(DefaultChecksumBits))
	}
	var w bitutil.Writer
	w.WriteBits(1, 16)
	w.WriteBits(10, 16)
	w.WriteGamma(2)
	w.WriteGamma(hugeDelta)
	w.WriteGamma(1)
	w.WriteBytes(make([]byte, 8))
	f.Add(w.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeResponse(data, DefaultChecksumBits)
		if err != nil {
			return
		}
		enc := r.Encode(DefaultChecksumBits)
		assertCanonical(t, data, enc, responseBits(r, DefaultChecksumBits))
		back, err := DecodeResponse(enc, DefaultChecksumBits)
		if err != nil || !reflect.DeepEqual(back, r) {
			t.Fatalf("re-encoded response decodes to %+v, %v; want %+v", back, err, r)
		}
	})
}
