// Package schemes is the pluggable recovery-scheme layer: every way of
// turning one received (and possibly damaged) packet into delivered
// application bytes lives behind the RecoveryScheme interface, and a
// registry (Register/ByName/Names, mirroring scenario.ByName) lets
// experiments, the CLI and external callers select schemes by name instead
// of switching on an enum.
//
// The paper's evaluation post-processes one symbol-level trace under every
// scheme (Sec. 7.2): the whole-packet CRC status quo, the fragmented-CRC
// baseline of Sec. 3.4, and PPR itself. Those three ship here as PacketCRC,
// FragCRC and PPR and reproduce the seed enum's figures bit for bit (see
// the parity test in internal/experiments). The layer also absorbs the
// coding-based recovery the paper's related work weighs against PPR
// (Sec. 8.3) and the hybrid direction ZipTx and Maranello later took:
// BlockFEC post-processes the trace as if the payload had been
// convolutionally coded (internal/fec), optionally behind a block
// interleaver (internal/interleave), and HybridPPRFEC spends that decoding
// effort only where SoftPHY hints flag damage.
//
// Every scheme scores one sim.Outcome from its packed coded-bit error
// pattern (sim.Outcome.ErrorPattern); the pattern is computed once per
// reception by the experiments layer and shared across all schemes and
// variants, so adding a scheme costs only its own arithmetic, never another
// pass over ground truth.
package schemes

import (
	"ppr/internal/baseline"
	"ppr/internal/bitutil"
	"ppr/internal/sim"
)

// symbolBits is the width of one PHY symbol: the DSSS PHY decodes 4-bit
// codewords, so two symbols make an application byte.
const symbolBits = 4

// Params fixes the per-scheme knobs. The zero value of every FEC field
// falls back to its default so the seed's {FragBytes, Eta} literals keep
// working unchanged.
type Params struct {
	// FragBytes is the fragmented-CRC fragment size (the paper settles on
	// 50 bytes, Sec. 7.2.1).
	FragBytes int
	// Eta is PPR's Hamming-distance threshold (the paper uses 6), also the
	// hint gate HybridPPRFEC repairs behind.
	Eta float64
	// FECDataBytes is the application bytes per convolutional block of the
	// FEC schemes; 0 means DefaultFECDataBytes.
	FECDataBytes int
	// InterleaveRows and InterleaveCols set the bit-interleaver geometry of
	// BlockFEC{Interleaved: true}: bursts up to InterleaveRows coded bits
	// spread into single errors InterleaveCols bits apart. 0 means the
	// defaults.
	InterleaveRows, InterleaveCols int
}

// Default FEC knobs: 25-byte data blocks keep several independent codewords
// in even a quick-scale 250-byte payload, and the 32×48 bit interleaver fits
// inside the quick payload's coded region while spreading bursts up to 4
// bytes — deliberately smaller than a typical collision footprint, which is
// exactly the provisioning problem the paper says coding-with-interleaving
// has and PPR avoids (Sec. 8.3).
const (
	DefaultFECDataBytes   = 25
	DefaultInterleaveRows = 32
	DefaultInterleaveCols = 48
)

// DefaultParams returns the paper's operating point.
func DefaultParams() Params {
	return Params{
		FragBytes:      50,
		Eta:            6,
		FECDataBytes:   DefaultFECDataBytes,
		InterleaveRows: DefaultInterleaveRows,
		InterleaveCols: DefaultInterleaveCols,
	}
}

// RecoveryScheme is one post-processing recovery scheme: it declares how
// many application bytes a packet carries and scores one receive outcome.
// Implementations must be stateless values safe for concurrent use — the
// experiments layer fans post-processing out over a worker pool. A score
// must be a function of the reception alone and must not read
// Outcome.Variant: when both receiver variants acquired the same
// reception, the experiments layer scores it once and reuses the score.
type RecoveryScheme interface {
	// Name is the scheme's display name ("Packet CRC"); Slug(Name()) is its
	// registry key ("packet-crc").
	Name() string
	// AppBytesPerPacket returns how many application bytes one link-layer
	// packet of payloadBytes carries under the scheme (fragmented CRC spends
	// payload on per-fragment checksums; FEC spends it on parity).
	AppBytesPerPacket(p Params, payloadBytes int) int
	// DeliveredAppBytes post-processes one outcome, returning the
	// application bytes the scheme would hand to higher layers. Only correct
	// bytes count: a delivered-but-wrong byte is not delivery. pat is the
	// outcome's precomputed ErrorPattern, shared across schemes; nil means
	// compute it locally. Chips past pat.Len() count as errors.
	DeliveredAppBytes(pat *bitutil.ChipWords, o *sim.Outcome, p Params, payloadBytes int) int
}

// patternOf resolves the shared error pattern, computing it only for
// direct callers that did not precompute one.
func patternOf(pat *bitutil.ChipWords, o *sim.Outcome) *bitutil.ChipWords {
	if pat == nil {
		return o.ErrorPattern()
	}
	return pat
}

// clean reports whether chips [lo, hi) lie inside the pattern and are all
// clear: every symbol of the range decoded correctly.
func clean(pat *bitutil.ChipWords, lo, hi int) bool {
	return hi <= pat.Len() && pat.NextSet(lo, hi) == hi
}

// ---- Packet CRC (the status quo) ----

// PacketCRC is the status quo the paper argues against: one checksum over
// the whole payload, so the packet is delivered entirely or not at all.
type PacketCRC struct{}

// Name implements RecoveryScheme.
func (PacketCRC) Name() string { return "Packet CRC" }

// AppBytesPerPacket implements RecoveryScheme: the whole payload is data.
func (PacketCRC) AppBytesPerPacket(p Params, payloadBytes int) int { return payloadBytes }

// DeliveredAppBytes implements RecoveryScheme: every symbol correct or
// nothing.
func (PacketCRC) DeliveredAppBytes(pat *bitutil.ChipWords, o *sim.Outcome, p Params, payloadBytes int) int {
	if !o.Acquired {
		return 0
	}
	if pat = patternOf(pat, o); !clean(pat, 0, pat.Len()) {
		return 0
	}
	return payloadBytes
}

// ---- Fragmented CRC (Sec. 3.4 baseline) ----

// FragCRC is the fragmented-CRC baseline of Sec. 3.4: the payload carries
// fragment‖CRC32 repeated, and each fragment whose checksum region arrived
// intact is delivered independently.
type FragCRC struct{}

// Name implements RecoveryScheme.
func (FragCRC) Name() string { return "Fragmented CRC" }

// AppBytesPerPacket implements RecoveryScheme: part of the payload is spent
// on per-fragment checksums.
func (FragCRC) AppBytesPerPacket(p Params, payloadBytes int) int {
	return baseline.AppCapacity(payloadBytes, p.FragBytes)
}

// DeliveredAppBytes implements RecoveryScheme: a fragment is delivered iff
// every symbol of its data-plus-CRC region is correct. A fragment whose
// region extends past the pattern (a payload too short for the layout) is
// not delivered.
func (FragCRC) DeliveredAppBytes(pat *bitutil.ChipWords, o *sim.Outcome, p Params, payloadBytes int) int {
	if !o.Acquired {
		return 0
	}
	pat = patternOf(pat, o)
	appBytes := baseline.AppCapacity(payloadBytes, p.FragBytes)
	delivered := 0
	pos := 0 // payload byte cursor
	for off := 0; off < appBytes; off += p.FragBytes {
		end := off + p.FragBytes
		if end > appBytes {
			end = appBytes
		}
		fragPayloadBytes := end - off + baseline.FragOverhead
		if clean(pat, 8*pos, 8*(pos+fragPayloadBytes)) {
			delivered += end - off
		}
		pos += fragPayloadBytes
	}
	return delivered
}

// ---- PPR (Sec. 5) ----

// PPR delivers exactly the symbols whose SoftPHY hint clears η — the
// paper's scheme, scored the way its capacity experiments score it: a
// symbol counts iff it is labelled good and is actually correct.
type PPR struct{}

// Name implements RecoveryScheme.
func (PPR) Name() string { return "PPR" }

// AppBytesPerPacket implements RecoveryScheme: the whole payload is data
// (PP-ARQ's feedback rides the reverse link, not the payload).
func (PPR) AppBytesPerPacket(p Params, payloadBytes int) int { return payloadBytes }

// DeliveredAppBytes implements RecoveryScheme. It counts good-and-correct
// symbols and converts to bytes once at the end, rounding the trailing
// nibble up: the seed's goodCorrect*4/8 floored the conversion, silently
// discarding half a delivered byte from every odd count. A symbol is
// correct iff its nibble of the error pattern is clear; the nibbles come
// 16 at a time off one 64-chip window.
func (PPR) DeliveredAppBytes(pat *bitutil.ChipWords, o *sim.Outcome, p Params, payloadBytes int) int {
	if !o.Acquired {
		return 0
	}
	pat = patternOf(pat, o)
	lo := o.MissingPrefix * symbolBits
	ds := o.Decisions[:max(0, min(len(o.Decisions), pat.Len()/symbolBits-o.MissingPrefix))]
	goodCorrect := 0
	for g := 0; g < len(ds); g += 16 {
		w := pat.Peek64(lo + g*symbolBits)
		for _, d := range ds[g:min(g+16, len(ds))] {
			if float64(d.Hint) <= p.Eta && w>>60 == 0 {
				goodCorrect++
			}
			w <<= symbolBits
		}
	}
	return (goodCorrect*symbolBits + 7) / 8
}
