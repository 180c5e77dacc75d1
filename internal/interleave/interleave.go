// Package interleave implements a block (row/column) interleaver, the
// technique the paper's related work discusses as complementary to partial
// packet recovery (Sec. 8.3): "techniques such as coding with interleaving
// spread the bursts of errors associated with collisions and deep fades
// across many codewords so that they can be corrected ... but not easy to
// implement, because it is necessary to know the channel conditions a
// priori in order to provision the amount of coding required".
//
// It is used by the ablation tests to quantify that trade-off against the
// convolutional code of internal/fec: interleaving converts a burst the
// code cannot correct into scattered errors it can — when (and only when)
// the interleaver depth was provisioned for the burst length, which is
// exactly the a-priori knowledge the paper says PPR avoids needing.
package interleave

import (
	"fmt"

	"ppr/internal/bitutil"
)

// Block is a rows×cols block interleaver over coded bits: data is written
// row-major and read column-major, so a burst of length L in the channel
// is spread into single errors at least rows positions apart (when
// L ≤ rows).
type Block struct {
	rows, cols int
}

// New returns a rows×cols block interleaver. Both dimensions must be
// positive.
func New(rows, cols int) Block {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("interleave: invalid geometry %dx%d", rows, cols))
	}
	return Block{rows: rows, cols: cols}
}

// Size returns the block size rows·cols: the transmitter interleaves
// whole tiles of Size() coded bits.
func (b Block) Size() int { return b.rows * b.cols }

// Deinterleave undoes the transmitter's interleaving of a packed chip
// stream. The transmitter writes each rows×cols tile row-major and reads
// it onto the channel column-major, so in channel order tile column c is
// rows consecutive chips, and chip r of it returns to tile position
// r·cols + c. A trailing run shorter than one tile was sent uninterleaved
// and is copied through. Only set chips move: one NextSet scan finds each,
// and the column and tile cursors advance by addition, so an error pattern
// costs time in proportion to its words and its errors.
func (b Block) Deinterleave(chips *bitutil.ChipWords) *bitutil.ChipWords {
	n := chips.Len()
	m := n / b.Size() * b.Size()
	out := bitutil.NewChipWords(n)
	tile, col, c := 0, 0, 0 // tile start, column start, column index
	for p := chips.NextSet(0, m); p < m; p = chips.NextSet(p+1, m) {
		for p >= col+b.rows {
			col += b.rows
			if c++; c == b.cols {
				tile, c = col, 0
			}
		}
		out.SetBit(tile+(p-col)*b.cols+c, 1)
	}
	out.CopyFrom(m, chips, m, n-m)
	return out
}

// Pad returns data extended with zeros to the next multiple of Size(),
// and the original length for truncation after deinterleaving.
func (b Block) Pad(data []byte) (padded []byte, origLen int) {
	origLen = len(data)
	rem := len(data) % b.Size()
	if rem == 0 {
		return data, origLen
	}
	padded = make([]byte, len(data)+b.Size()-rem)
	copy(padded, data)
	return padded, origLen
}
