// The FEC-side recovery schemes: block convolutional coding (with and
// without interleaving) and the hint-directed hybrid. They post-process the
// same uncoded trace every other scheme scores, emulating what the channel's
// recorded error pattern would have done to a coded payload: because the
// rate-1/2 convolutional code is linear, decoding the all-zeros codeword
// through the observed error pattern reproduces exactly the residual errors
// any real data would have suffered, so no reference payload is needed.
package schemes

import (
	"sync"

	"ppr/internal/bitutil"
	"ppr/internal/fec"
	"ppr/internal/interleave"
	"ppr/internal/sim"
)

// fecDataBytes, ilRows and ilCols resolve the Params knobs with their
// zero-value defaults.
func fecDataBytes(p Params) int {
	if p.FECDataBytes > 0 {
		return p.FECDataBytes
	}
	return DefaultFECDataBytes
}

func ilGeometry(p Params) (rows, cols int) {
	rows, cols = p.InterleaveRows, p.InterleaveCols
	if rows <= 0 {
		rows = DefaultInterleaveRows
	}
	if cols <= 0 {
		cols = DefaultInterleaveCols
	}
	return rows, cols
}

// fecLayout computes the block structure a payload supports: each block
// carries fecDataBytes(p) application bytes, independently encoded (and
// trellis-terminated) by the rate-1/2 K=7 code, and the payload holds as
// many whole coded blocks as fit. codedBits is always a multiple of 4, so
// blocks align with 4-bit PHY symbols.
func fecLayout(p Params, payloadBytes int) (nBlocks, dataBits, codedBits int) {
	dataBits = fecDataBytes(p) * 8
	codedBits = fec.EncodedLen(dataBits)
	nBlocks = payloadBytes * 8 / codedBits
	return nBlocks, dataBits, codedBits
}

// codedRegion returns an error pattern covering at least the first n
// chips: the pattern itself, or, when the true payload is shorter than the
// coded layout, a copy whose missing chips are set, as undecoded symbols'
// are. fec.Repairs then reads each block as a chip range of it.
func codedRegion(pat *bitutil.ChipWords, n int) *bitutil.ChipWords {
	if pat.Len() >= n {
		return pat
	}
	out := bitutil.NewChipWords(n)
	out.CopyFrom(0, pat, 0, pat.Len())
	out.Fill(pat.Len(), n, 1)
	return out
}

// deinterleaved recycles the FEC+interleaving scheme's deinterleave
// buffers across outcomes and scoring workers: one buffer per concurrent
// score instead of a fresh stream per damaged outcome.
var deinterleaved = sync.Pool{New: func() any { return new(bitutil.ChipWords) }}

// ---- Block FEC (Sec. 8.3's coding alternative) ----

// BlockFEC post-processes the trace as if the sender had convolutionally
// coded the payload: application data is split into FECDataBytes blocks,
// each encoded with internal/fec's rate-1/2 K=7 code, and a block is
// delivered iff the Viterbi decoder fully repairs it. With Interleaved set,
// the coded stream additionally passes through internal/interleave's block
// interleaver, so channel bursts up to InterleaveRows bits are spread into
// isolated, correctable single errors — when, and only when, the geometry
// was provisioned for the burst, which is the a-priori channel knowledge
// the paper notes PPR does not need (Sec. 8.3).
type BlockFEC struct {
	// Interleaved interposes the block bit-interleaver between the encoder
	// and the channel.
	Interleaved bool
}

// Name implements RecoveryScheme.
func (s BlockFEC) Name() string {
	if s.Interleaved {
		return "FEC+interleaving"
	}
	return "FEC"
}

// AppBytesPerPacket implements RecoveryScheme: the rate-1/2 code roughly
// halves capacity — the standing cost PPR avoids by not pre-provisioning
// redundancy.
func (s BlockFEC) AppBytesPerPacket(p Params, payloadBytes int) int {
	nBlocks, _, _ := fecLayout(p, payloadBytes)
	return nBlocks * fecDataBytes(p)
}

// DeliveredAppBytes implements RecoveryScheme. Each block goes through
// fec.Repairs, which answers "does Viterbi decode this pattern to all
// zeros?" from path metrics alone — the same boolean as testing
// fec.Decode's bits for zero. An error-free block answers before any
// trellis work and a damaged one starts at its first error, so
// post-processing cost scales with corruption, not payload size.
func (s BlockFEC) DeliveredAppBytes(pat *bitutil.ChipWords, o *sim.Outcome, p Params, payloadBytes int) int {
	if !o.Acquired {
		return 0
	}
	nBlocks, _, codedBits := fecLayout(p, payloadBytes)
	region := codedRegion(patternOf(pat, o), nBlocks*codedBits)
	if clean(region, 0, nBlocks*codedBits) {
		return nBlocks * fecDataBytes(p) // error-free coded region: every block decodes
	}
	if s.Interleaved {
		// The transmitter interleaved whole rows×cols bit tiles, so a
		// contiguous channel burst lands InterleaveCols bits apart at the
		// decoder; a trailing region shorter than one tile went (and comes
		// back) uninterleaved.
		rows, cols := ilGeometry(p)
		coded := region.View(0, nBlocks*codedBits)
		buf := deinterleaved.Get().(*bitutil.ChipWords)
		defer deinterleaved.Put(buf)
		interleave.New(rows, cols).DeinterleaveInto(buf, &coded)
		region = buf
	}
	delivered := 0
	for b := 0; b < nBlocks; b++ {
		if fec.Repairs(region, b*codedBits, (b+1)*codedBits) {
			delivered += fecDataBytes(p)
		}
	}
	return delivered
}

// ---- Hybrid PPR + FEC (the ZipTx/Maranello direction) ----

// HybridPPRFEC couples SoftPHY hints to the block code: the payload is laid
// out exactly as BlockFEC lays it out, but the receiver uses PPR's η
// threshold to decide where to spend decoding effort. A block whose symbols
// all pass the hint check is handed up directly — no trellis — and a block
// containing hint-flagged (or undecoded) symbols goes through the
// convolutional repair. FEC effort therefore concentrates on exactly the
// symbols the PHY flagged, the partial-recovery middle ground ZipTx and
// Maranello explore with application- and block-level checksums.
//
// The delivery semantics differ from plain BlockFEC only on hint misses: a
// wrong-but-confident symbol makes its hint-clean block undeliverable
// (delivered-but-wrong is not delivery), whereas BlockFEC's always-on
// decoder may repair it.
type HybridPPRFEC struct{}

// Name implements RecoveryScheme.
func (HybridPPRFEC) Name() string { return "PPR+FEC" }

// AppBytesPerPacket implements RecoveryScheme: same coded layout as
// BlockFEC.
func (HybridPPRFEC) AppBytesPerPacket(p Params, payloadBytes int) int {
	return BlockFEC{}.AppBytesPerPacket(p, payloadBytes)
}

// DeliveredAppBytes implements RecoveryScheme.
func (HybridPPRFEC) DeliveredAppBytes(pat *bitutil.ChipWords, o *sim.Outcome, p Params, payloadBytes int) int {
	if !o.Acquired {
		return 0
	}
	pat = patternOf(pat, o)
	nBlocks, _, codedBits := fecLayout(p, payloadBytes)
	symsPerBlock := codedBits / symbolBits
	var region *bitutil.ChipWords // resolved lazily, only if some block needs repair
	delivered := 0
	for b := 0; b < nBlocks; b++ {
		s0 := b * symsPerBlock
		flagged := false
		for idx := s0; idx < s0+symsPerBlock; idx++ {
			di := idx - o.MissingPrefix
			if di < 0 || di >= len(o.Decisions) || float64(o.Decisions[di].Hint) > p.Eta {
				flagged = true
				break
			}
		}
		if !flagged {
			// Hint-clean block: deliver directly iff actually correct.
			if clean(pat, b*codedBits, (b+1)*codedBits) {
				delivered += fecDataBytes(p)
			}
			continue
		}
		if region == nil {
			region = codedRegion(pat, nBlocks*codedBits)
		}
		if fec.Repairs(region, b*codedBits, (b+1)*codedBits) {
			delivered += fecDataBytes(p)
		}
	}
	return delivered
}
