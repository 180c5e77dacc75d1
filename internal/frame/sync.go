package frame

import (
	"math/bits"

	"ppr/internal/bitutil"
	"ppr/internal/chipseq"
	"ppr/internal/phy"
)

// ChipBuffer is the receiver's view of a packed chip stream. It is exactly
// bitutil.ChipWords — the representation the channel synthesizer produces —
// so reception consumes the on-air stream directly: the sliding sync
// correlation runs as a handful of XOR+popcount operations per candidate
// offset, and no byte-per-chip repack happens anywhere on the receive path.
type ChipBuffer = bitutil.ChipWords

// NewChipBuffer packs a byte-per-chip stream (any nonzero byte is chip
// value 1) — the adapter for callers at the sample-level modem boundary,
// where chips arrive as demodulated bytes.
func NewChipBuffer(chips []byte) *ChipBuffer {
	return bitutil.PackChipBytes(chips)
}

// SyncKind distinguishes which end of a packet a synchronizer locked onto.
type SyncKind uint8

const (
	// SyncPreamble marks a preamble+SFD detection (status-quo acquisition).
	SyncPreamble SyncKind = iota
	// SyncPostamble marks a postamble detection, which triggers the
	// roll-back decode path of Sec. 4.
	SyncPostamble
)

// String implements fmt.Stringer.
func (k SyncKind) String() string {
	if k == SyncPreamble {
		return "preamble"
	}
	return "postamble"
}

// Sync is one detected sync pattern.
type Sync struct {
	// Kind says whether the pattern was a preamble or postamble.
	Kind SyncKind
	// ChipOffset is the chip index where the sync pattern starts.
	ChipOffset int
	// Dist is the total chip Hamming distance between the received window
	// and the ideal pattern; lower is a stronger lock.
	Dist int
}

// DefaultSyncMaxDist is the default chip-error tolerance for declaring a
// sync lock. A clean pattern scores ~0 of 320 chips and uncorrelated noise
// ~160, but the binding constraint is self-similarity: a run of zero data
// bytes reproduces the sync pad exactly and differs from the full pattern
// only on the two delimiter codewords (d(c0,c7)+d(c0,c10) = 30 chips for
// the preamble). A threshold of 20 rejects such runs while tolerating chip
// error rates up to ~5% on a genuine pattern.
const DefaultSyncMaxDist = 20

// The sync scan works 64 chips — one machine word — at a time. Both sync
// patterns are 5 bytes = 320 chips = exactly five 64-chip blocks, and they
// share their first four blocks (the zero-byte pad, codeword 0 repeated);
// only the fifth block, the delimiter byte, differs between preamble and
// postamble. A candidate offset is checked by accumulating the shared pad
// distance block by block with the seed's early-bailout semantics (once the
// pad distance alone exceeds the threshold, both patterns are rejected),
// and only surviving candidates pay for the two delimiter correlations.
//
// Most offsets are never checked at all. The 256-chip pad has period 32,
// so each of the seven 64-chip windows at o, o+32, …, o+192 of a candidate
// o should equal padWord, and since distances are non-negative a candidate
// whose total distance is within maxDist has every one of those windows
// within maxDist too. Exactly one of the seven starts at a probe offset
// p with p mod 224 ∈ [0, 32). The scan therefore tests padWord only at
// probe offsets, 32 per 224-chip segment from two loaded words, and
// derives candidates from the hits: segment p0 = 224m owns the candidates
// [p0−192, p0+32), a hit at probe p0+r vouches for p0+r−32k, k = 0..6, and
// the segments tile the offset range in order. Against uncorrelated noise
// a probe hits with probability ~0.002 at the default threshold, so ~94%
// of segments are dismissed after 32 XOR+popcounts — one per seven
// offsets — and detections stay bit-identical to a full sweep.
const (
	syncBlocks = SyncChips / 64
	padBlocks  = syncBlocks - 1
	// probeChips is the pad's period (one codeword) and the number of
	// probe offsets per segment.
	probeChips = chipseq.ChipsPerSymbol
	// padWindows counts the 64-chip windows at probeChips steps inside
	// the pad (7); segChips (224) is the segment stride.
	padWindows = (padBlocks*64-64)/probeChips + 1
	segChips   = padWindows * probeChips
)

var (
	// padWord is one 64-chip block of the shared sync pad: the zero byte's
	// two codeword-0 repetitions. All four pad blocks are identical.
	padWord = phy.ByteWord(0)
	// preDelimWord and postDelimWord are the fifth, distinguishing blocks:
	// the delimiter bytes on the air.
	preDelimWord  = phy.ByteWord(SFD)
	postDelimWord = phy.ByteWord(PSFD)
)

// FindSyncs scans the buffer for preamble and postamble patterns, returning
// detections ordered by chip offset. Candidate detections closer than one
// codeword apart are collapsed to the strongest, which handles the cluster
// of near-hits around the true alignment.
func FindSyncs(buf *ChipBuffer, maxDist int) []Sync {
	return AppendSyncs(nil, buf, maxDist)
}

// AppendSyncs is FindSyncs appending into dst, the allocation-free form for
// callers that scan repeatedly (the receiver reuses one detection buffer
// across Receive calls).
func AppendSyncs(dst []Sync, buf *ChipBuffer, maxDist int) []Sync {
	if maxDist <= 0 {
		maxDist = DefaultSyncMaxDist
	}
	limit := buf.Len() - SyncChips
	base := len(dst)
	// A candidate o ≤ limit is vouched for by a probe p ≤ limit+192, whose
	// two probe words end by p0+128 ≤ Len(); later segments own nothing.
	for p0 := 0; p0 <= limit+(padWindows-1)*probeChips; p0 += segChips {
		w0, w1 := buf.Word64(p0), buf.Word64(p0+64)
		var hits uint32
		for r := 0; r < probeChips; r++ {
			if bits.OnesCount64(w0^padWord) <= maxDist {
				hits |= 1 << r
			}
			// Slide the probe window one chip: constant shifts only.
			w0 = w0<<1 | w1>>63
			w1 <<= 1
		}
		if hits == 0 {
			continue
		}
		// Walk the owned candidates in ascending order: k = 6 covers
		// [p0−192, p0−160), k = 0 covers [p0, p0+32).
		for k := padWindows - 1; k >= 0; k-- {
			for m := hits; m != 0; m &= m - 1 {
				off := p0 - k*probeChips + bits.TrailingZeros32(m)
				if off < 0 || off > limit {
					continue
				}
				d := bits.OnesCount64(buf.Word64(off) ^ padWord)
				if d > maxDist {
					continue
				}
				// Remaining shared pad blocks with the seed's early-bailout
				// semantics: once the pad distance alone exceeds the
				// threshold, both patterns are rejected.
				d += bits.OnesCount64(buf.Word64(off+64) ^ padWord)
				if d > maxDist {
					continue
				}
				d += bits.OnesCount64(buf.Word64(off+128) ^ padWord)
				if d > maxDist {
					continue
				}
				d += bits.OnesCount64(buf.Word64(off+192) ^ padWord)
				if d > maxDist {
					continue
				}
				// Delimiter block: the only place the two patterns diverge.
				last := buf.Word64(off + padBlocks*64)
				dPre := d + bits.OnesCount64(last^preDelimWord)
				dPost := d + bits.OnesCount64(last^postDelimWord)
				kind, dist := SyncPreamble, dPre
				if dPost < dPre {
					kind, dist = SyncPostamble, dPost
				}
				if dist > maxDist {
					continue
				}
				// Collapse candidates within one codeword of the previous
				// detection.
				if n := len(dst); n > base && off-dst[n-1].ChipOffset < chipseq.ChipsPerSymbol {
					if dist < dst[n-1].Dist {
						dst[n-1] = Sync{Kind: kind, ChipOffset: off, Dist: dist}
					}
					continue
				}
				dst = append(dst, Sync{Kind: kind, ChipOffset: off, Dist: dist})
			}
		}
	}
	mSyncsFound.Get().Add(int64(len(dst) - base))
	return dst
}
