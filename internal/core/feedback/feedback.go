// Package feedback implements the bit-exact wire format for PP-ARQ's
// reverse-link feedback and forward-link partial retransmissions (Sec. 5).
//
// The receiver's Request names the chunks it wants retransmitted —
// Elias-gamma coded offsets (delta from the previous chunk's end) and
// lengths, realising the ~log-sized fields of the Eq. 4 cost model — and
// carries a truncated checksum of every good segment so the sender can
// verify them ("the receiver also sends ... a checksum of [the good run] to
// the sender, so that the sender can verify that it received the good run
// correctly").
//
// The sender's Response carries the retransmitted symbols for each chunk
// plus checksums of the segments it did not retransmit, "so that the
// receiver can be certain that the bits in the non-retransmitted portions
// are correct".
//
// Segment boundaries are never transmitted: both sides derive them as the
// complement of the chunk list, so the only overhead for a good segment is
// its min(λᵍ, λC)-bit checksum.
package feedback

import (
	"errors"
	"fmt"

	"ppr/internal/bitutil"
	"ppr/internal/core/chunkdp"
	"ppr/internal/crcutil"
)

// DefaultChecksumBits is λC, the cap on per-segment checksum width.
const DefaultChecksumBits = 32

// Segment is a contiguous symbol range the receiver believes is good.
type Segment struct {
	// Start is the first symbol index of the segment.
	Start int
	// Len is the segment length in symbols (> 0).
	Len int
}

// End returns one past the segment's last symbol.
func (s Segment) End() int { return s.Start + s.Len }

// Segments returns the good segments of a packet of numSymbols symbols as
// the ordered complement of the chunk list. Empty gaps produce no segment.
func Segments(numSymbols int, chunks []chunkdp.Chunk) []Segment {
	var out []Segment
	pos := 0
	for _, c := range chunks {
		if c.StartSym > pos {
			out = append(out, Segment{Start: pos, Len: c.StartSym - pos})
		}
		pos = c.EndSym
	}
	if pos < numSymbols {
		out = append(out, Segment{Start: pos, Len: numSymbols - pos})
	}
	return out
}

// ChecksumWidth returns the wire width in bits of a segment checksum:
// min(λᵍ in bits, λC), clamped to at least 1 bit.
func ChecksumWidth(segSymbols, lambdaC int) int {
	w := segSymbols * 4
	if w > lambdaC {
		w = lambdaC
	}
	if w < 1 {
		w = 1
	}
	return w
}

// SymbolChecksum computes the truncated checksum of a symbol range (one
// byte per 4-bit symbol) at the given width.
func SymbolChecksum(syms []byte, width int) uint32 {
	return crcutil.Truncated(syms, width)
}

// Request is the receiver's feedback for one data packet.
type Request struct {
	// Seq identifies the data packet being acknowledged.
	Seq uint16
	// NumSymbols is the packet length in symbols, from the verified
	// header/trailer.
	NumSymbols int
	// CRCVerified short-circuits everything: the whole packet checked out,
	// so the feedback is a plain ACK ("which may be empty, if the receiver
	// can verify the forward link packet's checksum", Sec. 5.2).
	CRCVerified bool
	// Chunks are the symbol ranges to retransmit, in order.
	Chunks []chunkdp.Chunk
	// SegChecksums holds one truncated checksum per good segment (the
	// complement of Chunks), in segment order. Unused when CRCVerified.
	SegChecksums []uint32
}

// Encode serializes the request. lambdaC must match the decoder's.
func (r Request) Encode(lambdaC int) []byte {
	var w bitutil.Writer
	w.WriteBits(uint64(r.Seq), 16)
	w.WriteBits(uint64(r.NumSymbols), 16)
	w.WriteBit(r.CRCVerified)
	if r.CRCVerified {
		return w.Bytes()
	}
	w.WriteGamma(uint64(len(r.Chunks)) + 1)
	prevEnd := 0
	for _, c := range r.Chunks {
		w.WriteGamma(uint64(c.StartSym-prevEnd) + 1)
		w.WriteGamma(uint64(c.Len()))
		prevEnd = c.EndSym
	}
	segs := Segments(r.NumSymbols, r.Chunks)
	for i, s := range segs {
		w.WriteBits(uint64(r.SegChecksums[i]), ChecksumWidth(s.Len, lambdaC))
	}
	return w.Bytes()
}

// errTruncated is returned for any malformed or short feedback buffer.
var errTruncated = errors.New("feedback: truncated or malformed message")

// ErrChunkRange is returned for a message whose chunk list does not fit
// its packet: more chunks than symbols, or a chunk running past the last
// symbol.
var ErrChunkRange = errors.New("feedback: chunk exceeds packet")

// readChunkCount reads the gamma-coded chunk count (stored plus one). Each
// chunk covers at least one symbol, so a count above numSymbols is
// rejected before it is converted to int.
func readChunkCount(rd *bitutil.Reader, numSymbols int) (int, error) {
	n := rd.ReadGamma()
	if rd.Err() != nil || n == 0 {
		return 0, errTruncated
	}
	if n-1 > uint64(numSymbols) {
		return 0, fmt.Errorf("%w: %d chunks in a packet of %d symbols", ErrChunkRange, n-1, numSymbols)
	}
	return int(n - 1), nil
}

// readChunk reads chunk i's gamma-coded offset (from prevEnd, stored plus
// one) and length, and returns its [start, end) range. Both values are
// bounded against the room left in the packet in unsigned arithmetic:
// a 64-bit gamma value converted to int first could wrap negative and slip
// a chunk before the packet start past the range check.
func readChunk(rd *bitutil.Reader, i, prevEnd, numSymbols int) (start, end int, err error) {
	delta, length := rd.ReadGamma(), rd.ReadGamma()
	if rd.Err() != nil || delta == 0 || length == 0 {
		return 0, 0, errTruncated
	}
	room := uint64(numSymbols - prevEnd)
	if delta-1 > room || length > room-(delta-1) {
		return 0, 0, fmt.Errorf("%w: chunk %d (offset %d, length %d after symbol %d) in a packet of %d symbols",
			ErrChunkRange, i, delta-1, length, prevEnd, numSymbols)
	}
	start = prevEnd + int(delta-1)
	return start, start + int(length), nil
}

// DecodeRequest parses a request and validates its structure.
func DecodeRequest(data []byte, lambdaC int) (Request, error) {
	rd := bitutil.NewReader(data)
	var r Request
	r.Seq = uint16(rd.ReadBits(16))
	r.NumSymbols = int(rd.ReadBits(16))
	r.CRCVerified = rd.ReadBit()
	if err := rd.Err(); err != nil {
		return Request{}, errTruncated
	}
	if r.CRCVerified {
		return r, nil
	}
	nChunks, err := readChunkCount(rd, r.NumSymbols)
	if err != nil {
		return Request{}, err
	}
	prevEnd := 0
	for i := 0; i < nChunks; i++ {
		start, end, err := readChunk(rd, i, prevEnd, r.NumSymbols)
		if err != nil {
			return Request{}, err
		}
		r.Chunks = append(r.Chunks, chunkdp.Chunk{StartSym: start, EndSym: end})
		prevEnd = end
	}
	for _, s := range Segments(r.NumSymbols, r.Chunks) {
		r.SegChecksums = append(r.SegChecksums, uint32(rd.ReadBits(ChecksumWidth(s.Len, lambdaC))))
	}
	if rd.Err() != nil {
		return Request{}, errTruncated
	}
	return r, nil
}

// RespChunk is one retransmitted range in a Response.
type RespChunk struct {
	// Start is the chunk's first symbol index.
	Start int
	// Syms holds the retransmitted symbols, one byte per 4-bit symbol.
	Syms []byte
}

// End returns one past the chunk's last symbol.
func (c RespChunk) End() int { return c.Start + len(c.Syms) }

// Response is the sender's partial retransmission for one data packet.
type Response struct {
	// Seq identifies the original data packet.
	Seq uint16
	// NumSymbols is the packet length in symbols.
	NumSymbols int
	// Chunks carry the retransmitted symbol ranges (the requested chunks,
	// plus any good segment whose receiver checksum failed sender-side
	// verification — a detected SoftPHY miss).
	Chunks []RespChunk
	// SegChecksums are the sender's checksums of the non-retransmitted
	// segments, letting the receiver verify its good runs.
	SegChecksums []uint32
}

// Encode serializes the response.
func (r Response) Encode(lambdaC int) []byte {
	var w bitutil.Writer
	w.WriteBits(uint64(r.Seq), 16)
	w.WriteBits(uint64(r.NumSymbols), 16)
	w.WriteGamma(uint64(len(r.Chunks)) + 1)
	prevEnd := 0
	var asChunks []chunkdp.Chunk
	for _, c := range r.Chunks {
		w.WriteGamma(uint64(c.Start-prevEnd) + 1)
		w.WriteGamma(uint64(len(c.Syms)))
		for _, s := range c.Syms {
			w.WriteBits(uint64(s&0x0f), 4)
		}
		prevEnd = c.End()
		asChunks = append(asChunks, chunkdp.Chunk{StartSym: c.Start, EndSym: c.End()})
	}
	for i, s := range Segments(r.NumSymbols, asChunks) {
		w.WriteBits(uint64(r.SegChecksums[i]), ChecksumWidth(s.Len, lambdaC))
	}
	return w.Bytes()
}

// DecodeResponse parses a response and validates its structure.
func DecodeResponse(data []byte, lambdaC int) (Response, error) {
	rd := bitutil.NewReader(data)
	var r Response
	r.Seq = uint16(rd.ReadBits(16))
	r.NumSymbols = int(rd.ReadBits(16))
	nChunks, err := readChunkCount(rd, r.NumSymbols)
	if err != nil {
		return Response{}, err
	}
	prevEnd := 0
	var asChunks []chunkdp.Chunk
	for i := 0; i < nChunks; i++ {
		start, end, err := readChunk(rd, i, prevEnd, r.NumSymbols)
		if err != nil {
			return Response{}, err
		}
		syms := make([]byte, end-start)
		for j := range syms {
			syms[j] = byte(rd.ReadBits(4))
		}
		r.Chunks = append(r.Chunks, RespChunk{Start: start, Syms: syms})
		asChunks = append(asChunks, chunkdp.Chunk{StartSym: start, EndSym: end})
		prevEnd = end
	}
	for _, s := range Segments(r.NumSymbols, asChunks) {
		r.SegChecksums = append(r.SegChecksums, uint32(rd.ReadBits(ChecksumWidth(s.Len, lambdaC))))
	}
	if rd.Err() != nil {
		return Response{}, errTruncated
	}
	return r, nil
}

// RequestBits returns the exact encoded size of a request in bits, used by
// experiments to account feedback overhead without materialising packets.
func RequestBits(r Request, lambdaC int) int {
	if r.CRCVerified {
		return 33
	}
	bits := 33 + bitutil.GammaLen(uint64(len(r.Chunks))+1)
	prevEnd := 0
	for _, c := range r.Chunks {
		bits += bitutil.GammaLen(uint64(c.StartSym-prevEnd)+1) + bitutil.GammaLen(uint64(c.Len()))
		prevEnd = c.EndSym
	}
	for _, s := range Segments(r.NumSymbols, r.Chunks) {
		bits += ChecksumWidth(s.Len, lambdaC)
	}
	return bits
}
