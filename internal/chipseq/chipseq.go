// Package chipseq implements the IEEE 802.15.4 2.4 GHz direct-sequence
// spread spectrum code book used by the CC2420 radios in the PPR testbed.
//
// Each 4-bit data symbol maps to one of 16 quasi-orthogonal 32-chip
// pseudo-noise sequences (b = 4, B = 32 in the paper's notation, Sec. 2).
// Per IEEE 802.15.4-2006 Table 24, sequences 1–7 are successive 4-chip right
// rotations of the base sequence, and sequences 8–15 are the conjugates of
// 0–7 (every odd-indexed chip inverted). The geometry of this code book —
// in particular the pairwise Hamming distances between codewords — is what
// makes Hamming distance a usable SoftPHY hint (Sec. 3.2), so we reproduce
// the standard's exact sequences rather than an arbitrary orthogonal set.
package chipseq

import (
	"fmt"
	"math/bits"
)

const (
	// NumSymbols is the number of codewords (2^BitsPerSymbol).
	NumSymbols = 16
	// ChipsPerSymbol is the spreading factor B: chips per codeword.
	ChipsPerSymbol = 32
	// BitsPerSymbol is b: data bits carried by each codeword.
	BitsPerSymbol = 4
)

// baseChips is the symbol-0 chip sequence from IEEE 802.15.4-2006 Table 24,
// chip c0 first.
const baseChips = "11011001110000110101001000101110"

// codebook[s] holds the 32-chip sequence for symbol s with chip i stored at
// bit position (31-i), so the binary representation reads in chip order.
var codebook [NumSymbols]uint32

// guessShift and guessBits select the chips NearestHard's guess reads:
// chips 1–10 of the word. Their 16 projections are pairwise at least 3
// apart (chips 0–7, the top byte, have two projections 1 apart), so one chip
// error in the window still leaves the sent symbol's projection nearest.
const (
	guessShift = ChipsPerSymbol - 1 - guessBits
	guessBits  = 10
)

// guess[w] is the symbol whose chips 1–10 are nearest the window w (ties to
// the lowest symbol): NearestHard's first candidate for a word whose window
// reads w.
var guess [1 << guessBits]byte

// uniqueRadius is the code book's unique-decoding radius
// ⌊(MinPairDistance−1)/2⌋: a word within it of some codeword is strictly
// nearer that codeword than any other.
var uniqueRadius int

func init() {
	var base uint32
	for i := 0; i < ChipsPerSymbol; i++ {
		if baseChips[i] == '1' {
			base |= 1 << uint(31-i)
		}
	}
	for s := 0; s < 8; s++ {
		codebook[s] = rotateRightChips(base, 4*s)
	}
	// The conjugate inverts every odd-indexed chip (the Q-phase chips of the
	// O-QPSK half-sine modulation): mask has 1s at chip positions 1,3,5,...
	const oddMask = 0x55555555 // bit(31-i) set for odd i
	for s := 0; s < 8; s++ {
		codebook[8+s] = codebook[s] ^ oddMask
	}
	for w := range guess {
		best := ChipsPerSymbol + 1
		for s := 0; s < NumSymbols; s++ {
			if d := bits.OnesCount32(uint32(w) ^ guessWindow(codebook[s])); d < best {
				best, guess[w] = d, byte(s)
			}
		}
	}
	uniqueRadius = (MinPairDistance() - 1) / 2
}

// guessWindow extracts chips 1–10 of a word, the index of guess.
func guessWindow(w uint32) uint32 { return w >> guessShift & (1<<guessBits - 1) }

// rotateRightChips rotates the 32-chip sequence right by n chip positions in
// chip order (chip i moves to chip (i+n) mod 32).
func rotateRightChips(cw uint32, n int) uint32 {
	// Chip i is at bit (31-i); moving chips right in chip order is a right
	// rotate in bit order as well.
	return bits.RotateLeft32(cw, -n)
}

// Codeword returns the 32-chip sequence for the 4-bit symbol s.
func Codeword(s byte) uint32 {
	if s >= NumSymbols {
		panic(fmt.Sprintf("chipseq: symbol %d out of range", s))
	}
	return codebook[s]
}

// ChipAt extracts chip i (0 ≤ i < 32) from a codeword, returning 0 or 1.
func ChipAt(cw uint32, i int) int {
	return int(cw>>uint(31-i)) & 1
}

// NearestHard maps a hard-decided 32-chip word to the closest codeword and
// returns the decoded symbol together with the Hamming distance to it —
// exactly the SoftPHY hint of Sec. 3.2. Ties resolve to the lowest symbol,
// which is deterministic and unbiased with respect to correctness labelling.
//
// This is the despreader's innermost loop — one call per received symbol.
// Almost every correctly received codeword arrives within a chip or two of
// its own (Fig. 3), so it first tries one guess: the symbol whose chips
// 1–10 are nearest the word's. Those windows are pairwise at least 3 chips
// apart, so the guess is right for every word with at most one chip error.
// The code book's minimum pair distance is 12, so a word within the
// unique-decoding radius R = 5 of the guess lies at distance ≥ 12 − 5 = 7 > R
// from every other codeword: the guess is then the unique nearest codeword
// and is returned as is — same symbol, same hint, no tie to break. The
// shortcut is exact whatever the guess; a poor guess only costs the search
// below.
//
// Otherwise the search is fully unrolled over the 16 codewords and
// branch-free: each candidate packs (distance, symbol) into one word and a
// compare-move tournament keeps the minimum, which the compiler lowers to
// CMOVs rather than data-dependent branches. Packing the symbol in the low
// bits makes the tie-break to the lowest symbol fall out of the numeric
// minimum.
func NearestHard(received uint32) (sym byte, dist int) {
	g := guess[guessWindow(received)] & (NumSymbols - 1) // the mask elides a bounds check
	if d := bits.OnesCount32(received ^ codebook[g]); d <= uniqueRadius {
		return g, d
	}
	return nearestSearch(received)
}

// nearestSearch is NearestHard's 16-way tournament.
func nearestSearch(received uint32) (sym byte, dist int) {
	m := minU32(packDS(received, 0), packDS(received, 1))
	m = minU32(m, packDS(received, 2))
	m = minU32(m, packDS(received, 3))
	m = minU32(m, packDS(received, 4))
	m = minU32(m, packDS(received, 5))
	m = minU32(m, packDS(received, 6))
	m = minU32(m, packDS(received, 7))
	m = minU32(m, packDS(received, 8))
	m = minU32(m, packDS(received, 9))
	m = minU32(m, packDS(received, 10))
	m = minU32(m, packDS(received, 11))
	m = minU32(m, packDS(received, 12))
	m = minU32(m, packDS(received, 13))
	m = minU32(m, packDS(received, 14))
	m = minU32(m, packDS(received, 15))
	return byte(m & (NumSymbols - 1)), int(m >> 4)
}

// packDS packs symbol s's Hamming distance above the symbol value, so the
// minimum over all 16 packed words is the minimum distance with ties going
// to the lowest symbol.
func packDS(received uint32, s int) uint32 {
	return uint32(bits.OnesCount32(received^codebook[s]))<<4 | uint32(s)
}

func minU32(a, b uint32) uint32 {
	if b < a {
		return b
	}
	return a
}

// PairDistance returns the Hamming distance between the codewords of symbols
// a and b.
func PairDistance(a, b byte) int {
	return bits.OnesCount32(Codeword(a) ^ Codeword(b))
}

// MinPairDistance returns the minimum Hamming distance between any two
// distinct codewords in the book. Decoding errors at low SINR collapse onto
// codewords at this distance, which is why incorrect codewords show large
// Hamming-distance hints (Fig. 3).
func MinPairDistance() int {
	min := ChipsPerSymbol + 1
	for a := 0; a < NumSymbols; a++ {
		for b := a + 1; b < NumSymbols; b++ {
			if d := PairDistance(byte(a), byte(b)); d < min {
				min = d
			}
		}
	}
	return min
}

// String renders a codeword as its 32-character chip string, chip 0 first.
func String(cw uint32) string {
	b := make([]byte, ChipsPerSymbol)
	for i := 0; i < ChipsPerSymbol; i++ {
		b[i] = '0' + byte(ChipAt(cw, i))
	}
	return string(b)
}
