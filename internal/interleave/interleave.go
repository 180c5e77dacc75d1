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

// DeinterleaveInto undoes the transmitter's interleaving of a packed chip
// stream. The transmitter writes each rows×cols tile row-major and reads
// it onto the channel column-major, so in channel order tile column c is
// rows consecutive chips, and chip r of it returns to tile position
// r·cols + c: deinterleaving a tile transposes a cols×rows bit matrix.
//
// It does so by 32×32 bit transposes, two side by side in the halves of
// one [32]uint64. A block of up to 32 rows and 64 columns loads each
// column's run of rows as the high (first 32 columns) or low half of a
// word, chip r at bit 31 − r of the half. After the transpose, word j
// holds row j's chips of those columns in channel order, and one OR puts
// them into the output. Partial blocks at the tile's edges load zeros for
// their missing rows and columns, so any geometry takes this one path. A
// tile with no set chip is skipped before any of this, and so is a block
// whose columns load as zero. A trailing run shorter than one tile was
// sent uninterleaved and is copied through.
//
// dst is reset to chips.Len() chips over its own words, so a caller that
// deinterleaves many streams reuses one buffer; dst must not share words
// with chips.
func (b Block) DeinterleaveInto(dst, chips *bitutil.ChipWords) {
	n, size := chips.Len(), b.Size()
	m := n / size * size
	dst.Reset(n)
	dst.Fill(0, m, 0)
	var blk [32]uint64
	for tile := 0; tile < m; tile += size {
		if chips.NextSet(tile, tile+size) == tile+size {
			continue
		}
		for r0 := 0; r0 < b.rows; r0 += 32 {
			rowMask := ^uint64(0) << (64 - min(32, b.rows-r0))
			for c0 := 0; c0 < b.cols; c0 += 64 {
				blk = [32]uint64{}
				var set uint64
				off := tile + c0*b.rows + r0 // column c0's run
				for i := range min(64, b.cols-c0) {
					run := chips.Peek64(off) & rowMask
					blk[i%32] |= run >> (32 * (i / 32))
					set |= run
					off += b.rows
				}
				if set == 0 {
					continue
				}
				transpose32x2(&blk)
				for j := range min(32, b.rows-r0) {
					dst.Or64(tile+(r0+j)*b.cols+c0, blk[j])
				}
			}
		}
	}
	dst.CopyFrom(m, chips, m, n-m)
}

// transpose32x2 transposes the two 32×32 bit matrices held in the high and
// the low halves of a, row i in a[i] and column j at bit 31 − j of the
// half: five rounds that swap the off-diagonal halves of ever smaller
// blocks (Hacker's Delight, 2nd ed., 7–3), on both matrices at once. A
// shift that carries bits across the halves lands them where the round's
// mask is zero.
func transpose32x2(a *[32]uint64) {
	m := uint64(0x0000FFFF0000FFFF)
	for j := 16; j != 0; j, m = j>>1, m^m<<(j>>1) {
		for k := 0; k < 32; k = (k + j + 1) &^ j {
			t := (a[k] ^ a[k+j]>>j) & m
			a[k] ^= t
			a[k+j] ^= t << j
		}
	}
}
