// The FEC-side recovery schemes: block convolutional coding (with and
// without interleaving) and the hint-directed hybrid. They post-process the
// same uncoded trace every other scheme scores, emulating what the channel's
// recorded error pattern would have done to a coded payload: because the
// rate-1/2 convolutional code is linear, decoding the all-zeros codeword
// through the observed error pattern reproduces exactly the residual errors
// any real data would have suffered, so no reference payload is needed.
package schemes

import (
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

// channelErrorBits reconstructs the coded-bit error pattern the channel
// imposed on the payload: per symbol, the XOR of the decoded and true
// 4-bit values expanded LSB-first; symbols the receiver never decoded
// (missing prefix, truncated reception) are fully corrupted.
func channelErrorBits(o *sim.Outcome, payloadBytes int) []byte {
	nSym := payloadBytes * 2
	bits := make([]byte, nSym*symbolBits)
	for idx := 0; idx < nSym; idx++ {
		var e byte = 0xF
		if di := idx - o.MissingPrefix; di >= 0 && di < len(o.Decisions) && idx < len(o.TruthSyms) {
			e = (o.Decisions[di].Symbol ^ o.TruthSyms[idx]) & 0xF
		}
		for j := 0; j < symbolBits; j++ {
			bits[idx*symbolBits+j] = e >> uint(j) & 1
		}
	}
	return bits
}

// allZero reports whether every bit of an error pattern is clear.
func allZero(bits []byte) bool {
	for _, b := range bits {
		if b != 0 {
			return false
		}
	}
	return true
}

// blockRepaired reports whether the code fully repaired one coded block's
// error pattern. An error-free block short-circuits: hard-decision Viterbi
// of the uncorrupted codeword is the identity, so the trellis only runs
// where the channel actually did damage — post-processing cost scales with
// corruption, not payload size. A damaged block goes through fec.Repairs,
// which answers "does Viterbi decode this pattern to all zeros?" from path
// metrics alone: the same boolean as testing fec.Decode's bits for zero,
// without survivors, traceback or SOVA reliabilities, and stopping at the
// first step that rules repair out.
func blockRepaired(errBits []byte) bool {
	return allZero(errBits) || fec.Repairs(errBits)
}

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

// DeliveredAppBytes implements RecoveryScheme.
func (s BlockFEC) DeliveredAppBytes(mask []bool, o *sim.Outcome, p Params, payloadBytes int) int {
	if !o.Acquired {
		return 0
	}
	mask = maskOf(mask, o)
	nBlocks, _, codedBits := fecLayout(p, payloadBytes)
	if nBlocks == 0 {
		return 0
	}
	if cleanPayload(mask, payloadBytes) {
		return nBlocks * fecDataBytes(p) // error-free packet: every block decodes
	}
	region := channelErrorBits(o, payloadBytes)[:nBlocks*codedBits]
	if s.Interleaved {
		region = deinterleaved(region, p)
	}
	delivered := 0
	for b := 0; b < nBlocks; b++ {
		if blockRepaired(region[b*codedBits : (b+1)*codedBits]) {
			delivered += fecDataBytes(p)
		}
	}
	return delivered
}

// cleanPayload reports whether the mask certifies every symbol of the
// payload correct — the fast path that skips error-pattern reconstruction
// for the (common) undamaged packet.
func cleanPayload(mask []bool, payloadBytes int) bool {
	if len(mask) < payloadBytes*2 {
		return false
	}
	for _, ok := range mask[:payloadBytes*2] {
		if !ok {
			return false
		}
	}
	return true
}

// deinterleaved applies the receiver's deinterleaver to the coded region's
// error pattern: the transmitter interleaved whole rows×cols bit tiles, so
// a contiguous channel burst lands InterleaveCols bits apart at the
// decoder. A trailing region shorter than one tile is sent (and returned)
// uninterleaved.
func deinterleaved(region []byte, p Params) []byte {
	rows, cols := ilGeometry(p)
	il := interleave.New(rows, cols)
	m := len(region) / il.Size() * il.Size()
	if m == 0 {
		return region
	}
	out := il.Deinterleave(region[:m])
	return append(out, region[m:]...)
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
func (HybridPPRFEC) DeliveredAppBytes(mask []bool, o *sim.Outcome, p Params, payloadBytes int) int {
	if !o.Acquired {
		return 0
	}
	mask = maskOf(mask, o)
	nBlocks, _, codedBits := fecLayout(p, payloadBytes)
	symsPerBlock := codedBits / symbolBits
	var errBits []byte // reconstructed lazily, only if some block needs repair
	delivered := 0
	for b := 0; b < nBlocks; b++ {
		s0 := b * symsPerBlock
		flagged := false
		for idx := s0; idx < s0+symsPerBlock; idx++ {
			di := idx - o.MissingPrefix
			if di < 0 || di >= len(o.Decisions) || o.Decisions[di].Hint > p.Eta {
				flagged = true
				break
			}
		}
		if !flagged {
			// Hint-clean block: deliver directly iff actually correct.
			ok := true
			for idx := s0; idx < s0+symsPerBlock; idx++ {
				if idx >= len(mask) || !mask[idx] {
					ok = false
					break
				}
			}
			if ok {
				delivered += fecDataBytes(p)
			}
			continue
		}
		if errBits == nil {
			errBits = channelErrorBits(o, payloadBytes)
		}
		if blockRepaired(errBits[b*codedBits : (b+1)*codedBits]) {
			delivered += fecDataBytes(p)
		}
	}
	return delivered
}
