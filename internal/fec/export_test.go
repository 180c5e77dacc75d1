package fec

import "fmt"

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
