package fec

import (
	"fmt"

	"ppr/internal/phy"
)

// BitsFromBytes explodes bytes into bits, LSB first per byte (matching the
// symbol ordering of the rest of the stack). The output is allocated at its
// final length and written by index — one allocation, no append churn.
// Tests build coded streams from payload bytes with it; the external test
// package reaches it through this file.
func BitsFromBytes(data []byte) []byte {
	out := make([]byte, len(data)*8)
	for i, b := range data {
		for j := 0; j < 8; j++ {
			out[i*8+j] = b >> uint(j) & 1
		}
	}
	return out
}

// BytesFromBits packs bits (LSB first) into bytes; the bit count must be a
// multiple of 8.
func BytesFromBits(bitsIn []byte) []byte {
	if len(bitsIn)%8 != 0 {
		panic(fmt.Sprintf("fec: %d bits not a whole byte count", len(bitsIn)))
	}
	out := make([]byte, len(bitsIn)/8)
	for i, b := range bitsIn {
		if b&1 != 0 {
			out[i/8] |= 1 << uint(i%8)
		}
	}
	return out
}

// maxReliability anchors DecisionsFromResult's hint scale: a symbol's hint
// is maxReliability minus the reliability of its least reliable bit,
// clamped at 0, so that lower = more confident (the monotonicity contract).
const maxReliability = 16.0

// DecisionsFromResult converts a decode result into per-4-bit-symbol
// phy.Decisions, the same stream shape the DSSS PHY produces, so every
// higher layer (labelers, run-length, chunk DP, PP-ARQ) runs unchanged on
// the coded PHY. Each symbol's value is 4 consecutive bits, LSB first, and
// its hint comes from the least reliable of them. Reliabilities are
// non-negative integer margins, so the hint is an integer in [0, 16].
func DecisionsFromResult(res Result) []phy.Decision {
	n := len(res.Bits) / 4
	out := make([]phy.Decision, n)
	for i := 0; i < n; i++ {
		sym := res.Bits[i*4]&1 |
			res.Bits[i*4+1]&1<<1 |
			res.Bits[i*4+2]&1<<2 |
			res.Bits[i*4+3]&1<<3
		minRel := res.Reliability[i*4]
		for j := 1; j < 4; j++ {
			if r := res.Reliability[i*4+j]; r < minRel {
				minRel = r
			}
		}
		out[i] = phy.Decision{Symbol: sym, Hint: uint8(max(0, maxReliability-minRel))}
	}
	return out
}
