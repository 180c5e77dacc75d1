// Package frame implements the PPR packet format of Fig. 2 and the
// receiver-side frame synchronization machinery, including the postamble
// decoding scheme of Sec. 4.
//
// Over the air, a PPR frame is laid out as
//
//	preamble(4×0x00) ‖ SFD ‖ header ‖ payload ‖ CRC32 ‖ trailer ‖ post-pad(4×0x00) ‖ PSFD
//
// where the header carries (length, dst, src, seq) protected by a CRC-16,
// the trailer is an exact replica of the header (so a receiver that missed
// the preamble can learn the packet bounds from the end, Sec. 4), and the
// postamble's well-known sequence is distinct from the preamble's so the two
// cannot be confused.
//
// All synchronization is chip-level: receivers scan a packed chip stream for
// the 320-chip preamble and postamble patterns by sliding Hamming
// correlation, exactly the mechanism that lets a receiver lock onto a packet
// whose preamble was destroyed by a collision and "roll back" through its
// sample buffer to recover earlier symbols.
package frame

import (
	"fmt"
	"slices"

	"ppr/internal/chipseq"
	"ppr/internal/crcutil"
	"ppr/internal/phy"
)

const (
	// SFD is the start-of-frame delimiter byte following the preamble pad,
	// as in 802.15.4.
	SFD = 0xA7
	// PSFD is the postamble delimiter byte; it differs from SFD so that a
	// receiver can always tell which end of a packet it has locked onto.
	PSFD = 0x5C
	// SyncPadBytes is the number of zero bytes in each sync pad.
	SyncPadBytes = 4
	// SyncBytes is the total size of a sync pattern (pad + delimiter).
	SyncBytes = SyncPadBytes + 1
	// HeaderFieldBytes is the size of the header's data fields.
	HeaderFieldBytes = 8
	// HeaderBytes is the full header (fields + CRC-16); the trailer is the
	// same size because it replicates the header.
	HeaderBytes = HeaderFieldBytes + crcutil.Size16
	// CRC32Bytes is the size of the whole-packet checksum.
	CRC32Bytes = crcutil.Size32
	// MaxPayload is the largest payload the link layer accepts. The paper's
	// capacity experiments emulate 1500-byte packets.
	MaxPayload = 1500
)

// SymbolsPerByte is the number of 4-bit channel symbols per payload byte.
const SymbolsPerByte = 2

// ChipsPerByte is the number of chips each byte occupies on the air.
const ChipsPerByte = SymbolsPerByte * chipseq.ChipsPerSymbol

// SyncChips is the length in chips of a sync pattern.
const SyncChips = SyncBytes * ChipsPerByte

// AirBytes returns the total number of bytes a frame with the given payload
// length occupies on the air, sync patterns included.
func AirBytes(payloadLen int) int {
	return SyncBytes + HeaderBytes + payloadLen + CRC32Bytes + HeaderBytes + SyncBytes
}

// AirChips returns the frame's on-air length in chips.
func AirChips(payloadLen int) int { return AirBytes(payloadLen) * ChipsPerByte }

// MaxAirChips is the chip length of a maximally-sized frame; the receiver's
// circular sample buffer holds exactly this many chips (Sec. 4: "as many
// samples ... as there are symbols in one maximally-sized packet").
var MaxAirChips = AirChips(MaxPayload)

// Header is the link-layer header (and, replicated, the trailer): the packet
// length, destination and source addresses, and a sequence number, exactly
// the fields the paper's trailer carries so a postamble-synchronized
// receiver can identify the packet and request partial retransmission.
type Header struct {
	// Length is the payload length in bytes.
	Length uint16
	// Dst is the link-layer destination address.
	Dst uint16
	// Src is the link-layer source address.
	Src uint16
	// Seq is the sender's sequence number, used by PP-ARQ to pair feedback
	// with data packets.
	Seq uint16
}

// appendTo appends the header fields followed by their CRC-16.
func (h Header) appendTo(dst []byte) []byte {
	start := len(dst)
	dst = append(dst,
		byte(h.Length>>8), byte(h.Length),
		byte(h.Dst>>8), byte(h.Dst),
		byte(h.Src>>8), byte(h.Src),
		byte(h.Seq>>8), byte(h.Seq),
	)
	return crcutil.Append16(dst, dst[start:])
}

// ParseHeader decodes a 10-byte header/trailer and verifies its CRC-16.
// The all-zero buffer is rejected even though its CRC-16 happens to be
// zero: runs of zero data symbols look exactly like it, and accepting it
// would let a zero-filled payload masquerade as a trailer after a spurious
// sync.
func ParseHeader(b []byte) (Header, bool) {
	if len(b) != HeaderBytes {
		return Header{}, false
	}
	allZero := true
	for _, v := range b {
		if v != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		return Header{}, false
	}
	if _, ok := crcutil.Verify16(b); !ok {
		return Header{}, false
	}
	h := Header{
		Length: uint16(b[0])<<8 | uint16(b[1]),
		Dst:    uint16(b[2])<<8 | uint16(b[3]),
		Src:    uint16(b[4])<<8 | uint16(b[5]),
		Seq:    uint16(b[6])<<8 | uint16(b[7]),
	}
	if int(h.Length) > MaxPayload {
		return Header{}, false
	}
	return h, true
}

// Frame is one link-layer packet before spreading.
type Frame struct {
	// Hdr carries the link-layer addressing; Hdr.Length is maintained by
	// New and must equal len(Payload).
	Hdr Header
	// Payload is the network-layer data.
	Payload []byte
}

// New builds a frame, setting the header length from the payload. It panics
// if the payload exceeds MaxPayload: upper layers fragment before this
// point, so an oversized payload is a programming error.
func New(dst, src, seq uint16, payload []byte) Frame {
	if len(payload) > MaxPayload {
		panic(fmt.Sprintf("frame: payload %d exceeds MaxPayload %d", len(payload), MaxPayload))
	}
	return Frame{
		Hdr:     Header{Length: uint16(len(payload)), Dst: dst, Src: src, Seq: seq},
		Payload: payload,
	}
}

// preamble and postamble are the on-air sync byte sequences: the zero pad,
// then the delimiter.
var (
	preamble  = [SyncBytes]byte{SyncPadBytes: SFD}
	postamble = [SyncBytes]byte{SyncPadBytes: PSFD}
)

// AirBytes returns the complete over-the-air byte sequence of Fig. 2:
// preamble, header, payload, packet CRC-32, trailer (header replica), and
// postamble.
func (f Frame) AirBytes() []byte {
	return f.AppendAirBytes(make([]byte, 0, AirBytes(len(f.Payload))))
}

// AppendAirBytes is AirBytes appending to dst.
func (f Frame) AppendAirBytes(dst []byte) []byte {
	dst = append(dst, preamble[:]...)
	h := len(dst)
	dst = f.Hdr.appendTo(dst)
	dst = append(dst, f.Payload...)
	// The packet CRC covers the header fields and payload — "a CRC covering
	// the entire link-layer packet's contents" (Sec. 2).
	crc := crcutil.Update32(crcutil.Update32(0, dst[h:h+HeaderFieldBytes]), f.Payload)
	dst = append(dst, byte(crc>>24), byte(crc>>16), byte(crc>>8), byte(crc))
	dst = append(dst, dst[h:h+HeaderBytes]...) // trailer replicates the header
	return append(dst, postamble[:]...)
}

// AirChips returns the frame's packed on-air chip stream, one air byte's
// two codewords per word — the representation the channel synthesizer and
// receiver operate on natively.
func (f Frame) AirChips() *ChipBuffer {
	return phy.SpreadPacked(f.AirBytes())
}

// AirChipsInto is AirChips writing into caller-owned buffers, for a radio
// head that spreads frame after frame: chips is rewritten in full, and air
// is the air-byte scratch, returned (grown if needed) for the next call.
func (f Frame) AirChipsInto(chips *ChipBuffer, air []byte) []byte {
	air = f.AppendAirBytes(slices.Grow(air[:0], AirBytes(len(f.Payload))))
	phy.SpreadInto(chips, air)
	return air
}

// PacketCRC32OK recomputes the whole-packet CRC over decoded header fields
// and payload bytes. It streams the CRC across both parts — no concatenated
// buffer is materialized, so the receive path stays allocation-free.
func PacketCRC32OK(hdrFields, payload, crc []byte) bool {
	return packetCRC32OK(hdrFields, payload, crc)
}
