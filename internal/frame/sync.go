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
// postamble. A candidate whose shared pad distance alone exceeds the
// threshold is rejected for both patterns (the seed bails out block by
// block; the partial sums only grow, so comparing the four-block sum
// rejects the same candidates), and only surviving candidates pay for the
// two delimiter correlations.
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
	bufLen := buf.Len()
	limit := bufLen - SyncChips
	base := len(dst)
	// pads[k][r] is the pad distance of candidate p0−32k+r, set where
	// that candidate's bit is in the segment's cands[k].
	var pads [padWindows][probeChips]int
	// A candidate o ≤ limit is vouched for by a probe p ≤ limit+192, whose
	// two probe words end by p0+128 ≤ Len(); later segments own nothing.
	for p0 := 0; p0 <= limit+(padWindows-1)*probeChips; p0 += segChips {
		w0, w1 := buf.Word64(p0), buf.Word64(p0+64)
		var hits uint32
		// Four probes per iteration, each window a constant shift of the
		// same two words, so only the 4-chip slide is loop-carried.
		for r := 0; r < probeChips; r += 4 {
			if bits.OnesCount64(w0^padWord) <= maxDist {
				hits |= 1 << r
			}
			if bits.OnesCount64((w0<<1|w1>>63)^padWord) <= maxDist {
				hits |= 2 << r
			}
			if bits.OnesCount64((w0<<2|w1>>62)^padWord) <= maxDist {
				hits |= 4 << r
			}
			if bits.OnesCount64((w0<<3|w1>>61)^padWord) <= maxDist {
				hits |= 8 << r
			}
			w0 = w0<<4 | w1>>60
			w1 <<= 4
		}
		if hits == 0 {
			continue
		}
		// Prune each hit's candidates by its neighbour windows. Candidate
		// p−32k spans the windows p−32k, …, p+32(6−k); each is within
		// maxDist of padWord whenever the candidate's pad distance is,
		// for the reason the stride is exact. Walking outward from p to
		// the first window over maxDist (or past the buffer) finds lo
		// passing windows below and hi above, and exactly the candidates
		// with 6−hi ≤ k ≤ lo can pass. Their four pad blocks are windows
		// the walk measured, so the pad distance costs no further load.
		var cands [padWindows]uint32
		for m := hits; m != 0; m &= m - 1 {
			r := bits.TrailingZeros32(m)
			p := p0 + r
			// win[padWindows-1+j] is the distance of window p+32j.
			var win [2*padWindows - 1]int
			win[padWindows-1] = bits.OnesCount64(buf.Word64(p) ^ padWord)
			lo := 0
			for lo < padWindows-1 {
				q := p - (lo+1)*probeChips
				if q < 0 {
					break
				}
				d := bits.OnesCount64(buf.Word64(q) ^ padWord)
				if d > maxDist {
					break
				}
				lo++
				win[padWindows-1-lo] = d
			}
			hi := 0
			for hi < padWindows-1 {
				q := p + (hi+1)*probeChips
				if q+64 > bufLen {
					break
				}
				d := bits.OnesCount64(buf.Word64(q) ^ padWord)
				if d > maxDist {
					break
				}
				hi++
				win[padWindows-1+hi] = d
			}
			for k := padWindows - 1 - hi; k <= lo; k++ {
				// Candidate p−32k's pad blocks are its windows 0, 2, 4, 6.
				c := padWindows - 1 - k
				if d := win[c] + win[c+2] + win[c+4] + win[c+6]; d <= maxDist {
					cands[k] |= 1 << r
					pads[k][r] = d
				}
			}
		}
		// Walk the surviving candidates in ascending order: k = 6 covers
		// [p0−192, p0−160), k = 0 covers [p0, p0+32).
		for k := padWindows - 1; k >= 0; k-- {
			for m := cands[k]; m != 0; m &= m - 1 {
				r := bits.TrailingZeros32(m)
				off := p0 - k*probeChips + r
				if off < 0 || off > limit {
					continue
				}
				d := pads[k][r]
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
