package frame

import (
	"ppr/internal/crcutil"
	"ppr/internal/phy"
)

// Reception is the receiver's view of one acquired packet: where it lies in
// the chip stream, what the header said, the per-symbol payload decisions
// with their SoftPHY hints, and the whole-packet CRC verdict. This is the
// "partial packets + SoftPHY hints" interface of Fig. 1.
//
// Ownership: Decisions and PayloadBytes are views into scratch buffers
// owned by the Receiver that produced the Reception, and are valid only
// until that Receiver's next Receive or ReceiveSynced call. Callers that
// hand receptions to a longer-lived structure copy the slices they keep
// (the simulator's Outcome does exactly this); callers that consume a
// reception before transmitting again — the PP-ARQ state machines, the
// closed-loop link layers — use them in place. This is what makes the
// steady-state receive path allocation-free.
//
// A postamble reception that cannot win dedupe — an earlier reception of
// the same payload already holds at least as many decisions — is never
// decoded and never returned (see superseded).
type Reception struct {
	// Kind records whether acquisition happened on the preamble or — after
	// the preamble was lost to a collision — on the postamble.
	Kind SyncKind
	// SyncDist is the chip distance of the winning sync lock.
	SyncDist int
	// HeaderOK reports whether a header (preamble path) or trailer
	// (postamble path) parsed with a valid CRC-16. Without it the packet
	// bounds are unknown and no payload is delivered.
	HeaderOK bool
	// Hdr is the parsed header/trailer (valid only when HeaderOK).
	Hdr Header
	// PayloadStartChip is the chip offset where the payload begins; it
	// identifies the packet for deduplication and ground-truth scoring and
	// is meaningful even when the payload is partially out of the buffer.
	PayloadStartChip int
	// MissingPrefix counts payload symbols that could not be decoded
	// because they precede the receiver's circular buffer (postamble
	// rollback limit) or the start of the stream. They are reported so
	// higher layers can treat them as lost ("bad") symbols.
	MissingPrefix int
	// Decisions holds one entry per decoded payload symbol, in order,
	// starting after any missing prefix.
	Decisions []phy.Decision
	// PayloadBytes is the hard-decision payload reassembled from Decisions
	// (missing prefix filled with zeros), convenient for CRC checks and
	// ground-truth comparison.
	PayloadBytes []byte
	// CRCOK reports whether the whole-packet CRC-32 verified over the
	// decoded header fields and payload.
	CRCOK bool
}

// decodeScratch holds the Receiver's reusable buffers. Spans for decisions
// and reassembled bytes are carved off arena chunks that are re-sliced to
// zero length at the start of every Receive/ReceiveSynced call; once the
// chunks have grown to the caller's working-set size, the receive path
// performs no allocations at all (pinned by TestReceiveSteadyStateAllocs).
type decodeScratch struct {
	// syncs backs the detection list of Receive's sync scan.
	syncs []Sync
	// recs backs the returned Reception slice.
	recs []Reception
	// pre backs ReceiveSynced's preamble view.
	pre []Reception
	// dec is the decision arena; each decoded region is a span of it.
	dec []phy.Decision
	// bytes is the byte arena for headers, payloads and CRC fields.
	bytes []byte
	// syms is the per-payload symbol scratch; it never escapes.
	syms []byte
}

// decisionSpan returns an uninitialized span of n decisions from the
// arena. When the current chunk is too small a larger one replaces it;
// spans already handed out keep the old chunk alive, so they stay valid
// for the rest of the call.
func (s *decodeScratch) decisionSpan(n int) []phy.Decision {
	if cap(s.dec)-len(s.dec) < n {
		c := 2 * cap(s.dec)
		if c < n {
			c = n
		}
		if c < 1024 {
			c = 1024
		}
		s.dec = make([]phy.Decision, 0, c)
	}
	span := s.dec[len(s.dec) : len(s.dec)+n]
	s.dec = s.dec[:len(s.dec)+n]
	return span
}

// byteSpan is decisionSpan for the byte arena.
func (s *decodeScratch) byteSpan(n int) []byte {
	if cap(s.bytes)-len(s.bytes) < n {
		c := 2 * cap(s.bytes)
		if c < n {
			c = n
		}
		if c < 1024 {
			c = 1024
		}
		s.bytes = make([]byte, 0, c)
	}
	span := s.bytes[len(s.bytes) : len(s.bytes)+n]
	s.bytes = s.bytes[:len(s.bytes)+n]
	return span
}

// symbolScratch returns the zeroed n-symbol scratch slice.
func (s *decodeScratch) symbolScratch(n int) []byte {
	if cap(s.syms) < n {
		s.syms = make([]byte, n)
	}
	sy := s.syms[:n]
	clear(sy)
	return sy
}

// reset recycles the arenas for a new receive call. Chunks are kept at
// their high-water capacity; only the lengths rewind.
func (s *decodeScratch) reset() {
	s.recs = s.recs[:0]
	s.pre = s.pre[:0]
	s.dec = s.dec[:0]
	s.bytes = s.bytes[:0]
}

// Receiver turns raw chip streams into Receptions. The zero value is not
// usable; construct with NewReceiver. A Receiver owns scratch buffers that
// back the Receptions it returns (see Reception's ownership note), so it
// must not be copied and is not safe for concurrent use; the simulator
// keeps one per worker.
type Receiver struct {
	// Dec despreads codewords and attaches SoftPHY hints.
	Dec phy.Decoder
	// SyncMaxDist is the chip-error tolerance for sync detection.
	SyncMaxDist int
	// UsePostamble enables the postamble decoding path of Sec. 4; when
	// false the receiver behaves like the status quo and only acquires
	// packets whose preamble survived.
	UsePostamble bool
	// BufferChips bounds how far back from a postamble the receiver can
	// roll: the size of its circular sample buffer. Defaults to
	// MaxAirChips, "one maximally-sized packet".
	BufferChips int

	scratch decodeScratch
	m       rxMetrics
}

// NewReceiver returns a Receiver with the paper's configuration: the given
// decoder, default sync tolerance, postamble decoding enabled, and a
// circular buffer of one maximum packet. Metric cells are resolved here —
// enable the obs registry before constructing receivers that should report.
func NewReceiver(dec phy.Decoder) *Receiver {
	return &Receiver{
		Dec:          dec,
		SyncMaxDist:  DefaultSyncMaxDist,
		UsePostamble: true,
		BufferChips:  MaxAirChips,
		m:            newRxMetrics(),
	}
}

// regionSpan locates an n-symbol region at chipOff in a bufLen-chip
// buffer: skipped symbols start before chip 0, then decoded symbols are
// whole codewords up to the first one that runs past the end. It is the
// arithmetic decodeRegion despreads by, so the postamble path can learn
// how many decisions a rollback would yield without despreading it.
func regionSpan(bufLen, chipOff, n int) (skipped, decoded int) {
	if chipOff < 0 {
		skipped = min((31-chipOff)/32, n) // ⌈−chipOff/32⌉
	}
	if room := bufLen - 32 - chipOff; room >= 0 {
		decoded = max(min(room/32+1, n)-skipped, 0)
	}
	return skipped, decoded
}

// decodeRegion despreads nSymbols starting at chipOff, clipping to the
// buffer. It returns the decisions, the number of symbols skipped before the
// region start (clip at front), and whether the region was fully inside.
// The decisions are an arena span sized by regionSpan — no append churn on
// the hot path.
func (r *Receiver) decodeRegion(buf *ChipBuffer, chipOff, nSymbols int) (ds []phy.Decision, skipped int, complete bool) {
	skipped, n := regionSpan(buf.Len(), chipOff, nSymbols)
	ds = r.scratch.decisionSpan(n)
	off := chipOff + skipped*32
	for i := range ds {
		ds[i] = r.Dec.Decode(phy.Observation{Hard: buf.Word32(off + i*32)})
	}
	return ds, skipped, skipped == 0 && n == nSymbols
}

// decodeBytes despreads exactly nBytes at chipOff and packs them into a
// byte-arena span; ok is false if the region is not fully inside the
// buffer.
func (r *Receiver) decodeBytes(buf *ChipBuffer, chipOff, nBytes int) (b []byte, ok bool) {
	ds, skipped, complete := r.decodeRegion(buf, chipOff, nBytes*SymbolsPerByte)
	if skipped > 0 || !complete {
		return nil, false
	}
	b = r.scratch.byteSpan(nBytes)
	for i := range b {
		b[i] = ds[2*i].Symbol&0x0f | ds[2*i+1].Symbol<<4
	}
	return b, true
}

// Receive scans one packed chip stream and returns every distinct packet
// reception, ordered by payload position. Packets acquired via both their
// preamble and postamble are deduplicated, preferring the reception that
// recovered more. The stream is consumed as-is — byte-per-chip callers at
// the modem boundary pack once with NewChipBuffer. The returned slice and
// the Reception payload views are valid until the next Receive or
// ReceiveSynced call on this Receiver.
func (r *Receiver) Receive(buf *ChipBuffer) []Reception {
	r.scratch.syncs = AppendSyncs(r.scratch.syncs[:0], buf, r.SyncMaxDist)
	return r.receive(buf, r.scratch.syncs, false)
}

// ReceiveSynced decodes receptions from pre-computed sync detections and
// returns two views of one pass, both under Receive's ownership rule. recs
// is what Receive returns. preamble is what the call returns with
// UsePostamble = false, the status quo: the preamble path never depends on
// UsePostamble, so it is this pass's preamble receptions, deduplicated.
func (r *Receiver) ReceiveSynced(buf *ChipBuffer, syncs []Sync) (recs, preamble []Reception) {
	recs = r.receive(buf, syncs, true)
	return recs, dedupe(r.scratch.pre)
}

// receive is one decoding pass. With keepPre it also collects the
// preamble receptions, undeduplicated, in scratch.pre; Receive skips that
// copy because its callers read one view.
func (r *Receiver) receive(buf *ChipBuffer, syncs []Sync, keepPre bool) []Reception {
	r.scratch.reset()
	for _, s := range syncs {
		var rec Reception
		var ok bool
		switch s.Kind {
		case SyncPreamble:
			rec, ok = r.receiveFromPreamble(buf, s)
		case SyncPostamble:
			if !r.UsePostamble {
				continue
			}
			rec, ok = r.receiveFromPostamble(buf, s)
		}
		if ok {
			r.scratch.recs = append(r.scratch.recs, rec)
			if keepPre && rec.Kind == SyncPreamble {
				r.scratch.pre = append(r.scratch.pre, rec)
			}
		}
	}
	recs := dedupe(r.scratch.recs)
	if r.m.receptions != nil {
		var hdrOK, crcFail int64
		for i := range recs {
			if recs[i].HeaderOK {
				hdrOK++
				if !recs[i].CRCOK {
					crcFail++
				}
			}
		}
		r.m.receptions.Add(hdrOK)
		r.m.crcFail.Add(crcFail)
	}
	return recs
}

// receiveFromPreamble is the status-quo acquisition path: header follows the
// sync pattern, payload follows the header.
func (r *Receiver) receiveFromPreamble(buf *ChipBuffer, s Sync) (Reception, bool) {
	hdrStart := s.ChipOffset + SyncChips
	rec := Reception{Kind: SyncPreamble, SyncDist: s.Dist}
	hdrBytes, ok := r.decodeBytes(buf, hdrStart, HeaderBytes)
	if !ok {
		return rec, false
	}
	hdr, ok := ParseHeader(hdrBytes)
	rec.PayloadStartChip = hdrStart + HeaderBytes*ChipsPerByte
	if !ok {
		// Acquired a preamble but the header is corrupt: packet bounds are
		// unknown. Report the failed acquisition; the postamble path may
		// still rescue this packet.
		return rec, true
	}
	rec.HeaderOK = true
	rec.Hdr = hdr
	r.fillPayload(buf, &rec, hdrBytes[:HeaderFieldBytes], 0)
	return rec, true
}

// receiveFromPostamble implements the rollback path of Sec. 4: parse the
// trailer that ends at the postamble, learn the packet bounds from it, then
// roll back through the sample buffer to the start of the payload. A
// rollback that an earlier reception supersedes is not despread, and no
// reception is reported for it.
func (r *Receiver) receiveFromPostamble(buf *ChipBuffer, s Sync) (Reception, bool) {
	trailerStart := s.ChipOffset - HeaderBytes*ChipsPerByte
	rec := Reception{Kind: SyncPostamble, SyncDist: s.Dist}
	trailerBytes, ok := r.decodeBytes(buf, trailerStart, HeaderBytes)
	if !ok {
		return rec, false
	}
	hdr, ok := ParseHeader(trailerBytes)
	if !ok {
		// Step 3 of the paper's procedure failed: the trailer's checksum
		// did not verify, so the receiver cannot locate the packet.
		return rec, true
	}
	rec.HeaderOK = true
	rec.Hdr = hdr
	crcStart := trailerStart - CRC32Bytes*ChipsPerByte
	rec.PayloadStartChip = crcStart - int(hdr.Length)*ChipsPerByte
	// The circular buffer holds one maximum packet ending at the postamble's
	// end; symbols before that horizon are gone.
	bufferChips := r.BufferChips
	if bufferChips <= 0 {
		bufferChips = MaxAirChips
	}
	horizon := s.ChipOffset + SyncChips - bufferChips
	if horizon < 0 {
		horizon = 0
	}
	nSym := int(hdr.Length) * SymbolsPerByte
	clipped := 0
	if start := rec.PayloadStartChip; start < horizon {
		clipped = min((horizon-start+31)/32, nSym)
	}
	// The decisions the rollback would yield, known before despreading.
	_, nDec := regionSpan(buf.Len(), rec.PayloadStartChip+clipped*32, nSym-clipped)
	if r.superseded(rec.PayloadStartChip, nDec) {
		return rec, false
	}
	r.fillPayload(buf, &rec, trailerBytes[:HeaderFieldBytes], clipped)
	return rec, true
}

// superseded reports whether a header-verified reception of the packet at
// payload chip start, holding at least nDec decisions, is already in this
// call's list. dedupe would then discard a postamble reception of nDec
// decisions — to replace a kept reception it needs strictly more, and a tie
// goes to the preamble — so its rollback is never despread.
func (r *Receiver) superseded(start, nDec int) bool {
	for i := range r.scratch.recs {
		if e := &r.scratch.recs[i]; e.HeaderOK && e.PayloadStartChip == start && len(e.Decisions) >= nDec {
			return true
		}
	}
	return false
}

// fillPayload decodes the payload after its first clipped symbols (those
// before the rollback horizon; 0 on the preamble path), reassembles the
// payload bytes and verifies the packet CRC-32.
func (r *Receiver) fillPayload(buf *ChipBuffer, rec *Reception, hdrFields []byte, clipped int) {
	nSym := int(rec.Hdr.Length) * SymbolsPerByte
	start := rec.PayloadStartChip
	ds, skipped, _ := r.decodeRegion(buf, start+clipped*32, nSym-clipped)
	rec.MissingPrefix = clipped + skipped
	rec.Decisions = ds
	// Reassemble payload bytes: zero-fill the missing prefix, then decoded
	// symbols; if the tail is truncated, zero-fill that too.
	syms := r.scratch.symbolScratch(nSym)
	for i, d := range ds {
		syms[rec.MissingPrefix+i] = d.Symbol
	}
	pb := r.scratch.byteSpan(int(rec.Hdr.Length))
	for i := range pb {
		pb[i] = syms[2*i]&0x0f | syms[2*i+1]<<4
	}
	rec.PayloadBytes = pb
	// Verify the packet CRC over decoded header fields + payload.
	crcStart := start + nSym*32
	if crcBytes, ok := r.decodeBytes(buf, crcStart, CRC32Bytes); ok && rec.MissingPrefix == 0 && len(ds) == nSym {
		rec.CRCOK = packetCRC32OK(hdrFields, rec.PayloadBytes, crcBytes)
	}
}

// packetCRC32OK streams the whole-packet CRC over decoded header fields and
// payload without materializing their concatenation.
func packetCRC32OK(hdrFields, payload, crc []byte) bool {
	if len(crc) != CRC32Bytes {
		return false
	}
	want := uint32(crc[0])<<24 | uint32(crc[1])<<16 | uint32(crc[2])<<8 | uint32(crc[3])
	return crcutil.Update32(crcutil.Update32(0, hdrFields), payload) == want
}

// dedupe collapses receptions that refer to the same packet (identified by
// payload start offset), preferring header-verified receptions, then those
// with more decoded symbols, then preamble over postamble (preamble
// reception needs no rollback and is what the status quo would deliver).
// It compacts in place and finishes with an allocation-free insertion sort
// — the reception count per stream is tiny. Postamble receptions that would
// lose here never reach it: receiveFromPostamble drops them before
// despreading their payload (superseded), which leaves the result as if
// they had been decoded and discarded.
func dedupe(recs []Reception) []Reception {
	n := 0
	for i := range recs {
		rec := recs[i]
		if rec.HeaderOK {
			dup := false
			for j := 0; j < n; j++ {
				if recs[j].HeaderOK && recs[j].PayloadStartChip == rec.PayloadStartChip {
					if betterReception(rec, recs[j]) {
						recs[j] = rec
					}
					dup = true
					break
				}
			}
			if dup {
				continue
			}
		}
		// Failed acquisitions have no reliable identity; keep them all
		// (experiments count them separately).
		recs[n] = rec
		n++
	}
	recs = recs[:n]
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && lessReception(&recs[j], &recs[j-1]); j-- {
			recs[j], recs[j-1] = recs[j-1], recs[j]
		}
	}
	return recs
}

func lessReception(a, b *Reception) bool {
	if a.PayloadStartChip != b.PayloadStartChip {
		return a.PayloadStartChip < b.PayloadStartChip
	}
	return a.Kind < b.Kind
}

func betterReception(a, b Reception) bool {
	if len(a.Decisions) != len(b.Decisions) {
		return len(a.Decisions) > len(b.Decisions)
	}
	return a.Kind == SyncPreamble && b.Kind == SyncPostamble
}

// BestReception returns the header-verified reception that decoded the most
// payload symbols, or nil if none verified. Single-link channels (the PP-ARQ
// experiments, netsim's point-to-point hops) use it to pick the one
// reception a Transmit call should report; callers on shared channels filter
// by header identity first so an interferer's packet is never mistaken for
// the transmitted one.
func BestReception(recs []Reception) *Reception {
	var best *Reception
	for i := range recs {
		if !recs[i].HeaderOK {
			continue
		}
		if best == nil || len(recs[i].Decisions) > len(best.Decisions) {
			best = &recs[i]
		}
	}
	return best
}
