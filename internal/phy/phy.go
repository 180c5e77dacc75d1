// Package phy implements the 802.15.4 DSSS physical layer of the PPR
// receiver: spreading of data symbols onto 32-chip codewords, despreading of
// received chips back to symbols, and — the heart of SoftPHY (Sec. 3) — two
// of the hint sources the paper proposes:
//
//   - Hamming distance from hard-decision decoding (Sec. 3.2, the
//     implemented and evaluated variant),
//   - the matched-filter output in the absence of channel coding.
//
// Every decoder honours the monotonicity contract of Sec. 3.3: for two hint
// values h1 < h2, the PHY is more confident in the symbol carrying h1. The
// absolute scale of a hint is decoder-specific and deliberately NOT part of
// the contract; higher layers must calibrate thresholds per PHY
// (internal/core/softphy does exactly that).
package phy

import (
	"fmt"
	"slices"

	"ppr/internal/bitutil"
	"ppr/internal/chipseq"
)

// Decision is one decoded symbol with its SoftPHY hint attached. The hint
// travels with the symbol all the way up to PP-ARQ (Fig. 1).
type Decision struct {
	// Symbol is the decoded 4-bit data symbol.
	Symbol byte
	// Hint is the decoder's confidence annotation; lower means more
	// confident, per the monotonicity contract. Every hint source is an
	// integer count: at most 32 for HardDecoder, 64 for
	// MatchedFilterDecoder.
	Hint uint8
}

// Decoder despreads one codeword of hard-decided chips into a Decision.
type Decoder interface {
	// Decode maps the 32 hard-decided chips of one codeword interval,
	// chip i at bit (31-i), to a symbol decision with hint.
	Decode(chips uint32) Decision
	// Name identifies the decoder in experiment output.
	Name() string
}

// HardDecoder implements hard-decision decoding: the demodulator decides
// each chip independently, and the decoder maps the received 32-chip word to
// the nearest codeword. The hint is the Hamming distance of that mapping
// (Sec. 3.2). This is the variant the paper implements and evaluates.
type HardDecoder struct{}

// Decode despreads by minimum Hamming distance.
func (HardDecoder) Decode(chips uint32) Decision {
	sym, dist := chipseq.NearestHard(chips)
	return Decision{Symbol: sym, Hint: uint8(dist)}
}

// Name implements Decoder.
func (HardDecoder) Name() string { return "hdd" }

// MatchedFilterDecoder models the third hint option of Sec. 3.1: the raw
// output of a filter matched to the decided-upon codeword. The hint is the
// negated, offset filter output B − C_best = 2d for Hamming distance d
// (un-normalised, so its scale differs from HardDecoder's — intentionally,
// to exercise the threshold-adaptation machinery of Sec. 3.3).
type MatchedFilterDecoder struct{}

// Decode despreads by minimum Hamming distance and reports the inverted
// filter peak as the hint.
func (MatchedFilterDecoder) Decode(chips uint32) Decision {
	d := HardDecoder{}.Decode(chips)
	return Decision{Symbol: d.Symbol, Hint: 2 * d.Hint}
}

// Name implements Decoder.
func (MatchedFilterDecoder) Name() string { return "mf" }

// SpreadSymbols maps 4-bit data symbols to their 32-chip codewords.
func SpreadSymbols(syms []byte) []uint32 {
	out := make([]uint32, len(syms))
	for i, s := range syms {
		out[i] = chipseq.Codeword(s)
	}
	return out
}

// SpreadBytes maps payload bytes to codewords, two per byte, low nibble
// first (the 802.15.4 transmission order).
func SpreadBytes(data []byte) []uint32 {
	return SpreadSymbols(bitutil.NibblesFromBytes(data))
}

// byteWords[b] is byte b's 64 chips on the air: the codeword of its low
// nibble, sent first, in the upper half and that of its high nibble in the
// lower half.
var byteWords = func() (t [256]uint64) {
	for b := range t {
		t[b] = uint64(chipseq.Codeword(byte(b)&0x0f))<<32 | uint64(chipseq.Codeword(byte(b)>>4))
	}
	return t
}()

// ByteWord returns byte b's 64 chips on the air as one packed word, the
// first chip at bit 63.
func ByteWord(b byte) uint64 { return byteWords[b] }

// SpreadPacked spreads bytes straight into a packed chip stream, one table
// word per byte — the transmitter's path onto the air. It equals
// bitutil.PackChipBytes(ChipsOf(SpreadBytes(data))) without building
// either intermediate.
func SpreadPacked(data []byte) *bitutil.ChipWords {
	w := new(bitutil.ChipWords)
	SpreadInto(w, data)
	return w
}

// SpreadInto is SpreadPacked writing into dst: dst becomes the 64·len(data)
// chip stream of data, reusing its words when they have room. Every word
// is rewritten, so nothing a previous user left in dst survives.
func SpreadInto(dst *bitutil.ChipWords, data []byte) {
	dst.Reset(64 * len(data))
	for i, b := range data {
		dst.SetWord(i, byteWords[b])
	}
}

// ChipsOf flattens codewords into a chip slice (one byte per chip, 0 or 1),
// the representation of the sample-level modem boundary. The simulator
// proper works over packed words (SpreadPacked / DecodeStream).
func ChipsOf(cws []uint32) []byte {
	out := make([]byte, 0, len(cws)*chipseq.ChipsPerSymbol)
	for _, cw := range cws {
		for i := 0; i < chipseq.ChipsPerSymbol; i++ {
			out = append(out, byte(chipseq.ChipAt(cw, i)))
		}
	}
	return out
}

// PackChips converts a chip slice (0/1 bytes) starting at off back into a
// codeword-aligned uint32 — the adapter from demodulated byte chips. It
// panics if fewer than 32 chips remain: framers must bound their own scans.
func PackChips(chips []byte, off int) uint32 {
	if off < 0 || off+chipseq.ChipsPerSymbol > len(chips) {
		panic(fmt.Sprintf("phy: PackChips offset %d out of range for %d chips", off, len(chips)))
	}
	var cw uint32
	for i := 0; i < chipseq.ChipsPerSymbol; i++ {
		if chips[off+i] != 0 {
			cw |= 1 << uint(31-i)
		}
	}
	return cw
}

// DecodeStream despreads a symbol-aligned packed chip stream with the given
// decoder, returning one Decision per whole codeword. Trailing chips short
// of a full codeword are ignored. Codewords are extracted directly from the
// packed words — no byte-per-chip intermediate exists on this path.
func DecodeStream(dec Decoder, chips *bitutil.ChipWords) []Decision {
	return AppendDecodeStream(nil, dec, chips)
}

// AppendDecodeStream is DecodeStream appending into dst — the
// allocation-free form for callers despreading many streams in a loop,
// who pass a reused buffer re-sliced to zero length.
func AppendDecodeStream(dst []Decision, dec Decoder, chips *bitutil.ChipWords) []Decision {
	n := chips.Len() / chipseq.ChipsPerSymbol
	base := len(dst)
	dst = slices.Grow(dst, n)[:base+n]
	for i := 0; i < n; i++ {
		dst[base+i] = dec.Decode(chips.Word32(i * chipseq.ChipsPerSymbol))
	}
	return dst
}
