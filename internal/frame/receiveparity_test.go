package frame_test

import (
	"fmt"
	"slices"
	"testing"

	"ppr/internal/frame"
	"ppr/internal/phy"
	"ppr/internal/stats"
)

// Parity suite for the superseded-rollback skip: Receiver.Receive must
// return exactly what the receive loop returned when it decoded every sync
// in full and let dedupe pick, and ReceiveSynced's preamble view exactly
// what that loop returned without postamble decoding. refReceive below is that loop, frozen; it
// shares nothing with the receiver but the exported frame format helpers.

// refReceive decodes every sync's reception in full, then deduplicates.
func refReceive(dec phy.Decoder, usePostamble bool, bufferChips int, buf *frame.ChipBuffer) []frame.Reception {
	var recs []frame.Reception
	for _, s := range frame.FindSyncs(buf, frame.DefaultSyncMaxDist) {
		var rec frame.Reception
		var ok bool
		switch s.Kind {
		case frame.SyncPreamble:
			rec, ok = refFromPreamble(dec, buf, s)
		case frame.SyncPostamble:
			if !usePostamble {
				continue
			}
			rec, ok = refFromPostamble(dec, bufferChips, buf, s)
		}
		if ok {
			recs = append(recs, rec)
		}
	}
	return refDedupe(recs)
}

func refDecodeRegion(dec phy.Decoder, buf *frame.ChipBuffer, chipOff, nSymbols int) (ds []phy.Decision, skipped int, complete bool) {
	ds = make([]phy.Decision, 0, nSymbols)
	complete = true
	for i := 0; i < nSymbols; i++ {
		off := chipOff + i*32
		if off < 0 {
			skipped++
			complete = false
			continue
		}
		if off+32 > buf.Len() {
			complete = false
			break
		}
		ds = append(ds, dec.Decode(phy.Observation{Hard: buf.Word32(off)}))
	}
	return ds, skipped, complete
}

func refDecodeBytes(dec phy.Decoder, buf *frame.ChipBuffer, chipOff, nBytes int) ([]byte, bool) {
	ds, skipped, complete := refDecodeRegion(dec, buf, chipOff, nBytes*frame.SymbolsPerByte)
	if skipped > 0 || !complete {
		return nil, false
	}
	b := make([]byte, nBytes)
	for i := range b {
		b[i] = ds[2*i].Symbol&0x0f | ds[2*i+1].Symbol<<4
	}
	return b, true
}

func refFromPreamble(dec phy.Decoder, buf *frame.ChipBuffer, s frame.Sync) (frame.Reception, bool) {
	hdrStart := s.ChipOffset + frame.SyncChips
	rec := frame.Reception{Kind: frame.SyncPreamble, SyncDist: s.Dist}
	hdrBytes, ok := refDecodeBytes(dec, buf, hdrStart, frame.HeaderBytes)
	if !ok {
		return rec, false
	}
	hdr, ok := frame.ParseHeader(hdrBytes)
	rec.PayloadStartChip = hdrStart + frame.HeaderBytes*frame.ChipsPerByte
	if !ok {
		return rec, true
	}
	rec.HeaderOK = true
	rec.Hdr = hdr
	refFillPayload(dec, buf, &rec, hdrBytes[:frame.HeaderFieldBytes], 0)
	return rec, true
}

func refFromPostamble(dec phy.Decoder, bufferChips int, buf *frame.ChipBuffer, s frame.Sync) (frame.Reception, bool) {
	trailerStart := s.ChipOffset - frame.HeaderBytes*frame.ChipsPerByte
	rec := frame.Reception{Kind: frame.SyncPostamble, SyncDist: s.Dist}
	trailerBytes, ok := refDecodeBytes(dec, buf, trailerStart, frame.HeaderBytes)
	if !ok {
		return rec, false
	}
	hdr, ok := frame.ParseHeader(trailerBytes)
	if !ok {
		return rec, true
	}
	rec.HeaderOK = true
	rec.Hdr = hdr
	crcStart := trailerStart - frame.CRC32Bytes*frame.ChipsPerByte
	rec.PayloadStartChip = crcStart - int(hdr.Length)*frame.ChipsPerByte
	if bufferChips <= 0 {
		bufferChips = frame.MaxAirChips
	}
	horizon := s.ChipOffset + frame.SyncChips - bufferChips
	if horizon < 0 {
		horizon = 0
	}
	refFillPayload(dec, buf, &rec, trailerBytes[:frame.HeaderFieldBytes], horizon)
	return rec, true
}

func refFillPayload(dec phy.Decoder, buf *frame.ChipBuffer, rec *frame.Reception, hdrFields []byte, horizon int) {
	nSym := int(rec.Hdr.Length) * frame.SymbolsPerByte
	start := rec.PayloadStartChip
	clippedSyms := 0
	if start < horizon {
		clippedSyms = (horizon - start + 31) / 32
		if clippedSyms > nSym {
			clippedSyms = nSym
		}
	}
	ds, skipped, _ := refDecodeRegion(dec, buf, start+clippedSyms*32, nSym-clippedSyms)
	rec.MissingPrefix = clippedSyms + skipped
	rec.Decisions = ds
	syms := make([]byte, nSym)
	for i, d := range ds {
		syms[rec.MissingPrefix+i] = d.Symbol
	}
	pb := make([]byte, rec.Hdr.Length)
	for i := range pb {
		pb[i] = syms[2*i]&0x0f | syms[2*i+1]<<4
	}
	rec.PayloadBytes = pb
	crcStart := start + nSym*32
	if crcBytes, ok := refDecodeBytes(dec, buf, crcStart, frame.CRC32Bytes); ok && rec.MissingPrefix == 0 && len(ds) == nSym {
		rec.CRCOK = frame.PacketCRC32OK(hdrFields, rec.PayloadBytes, crcBytes)
	}
}

func refDedupe(recs []frame.Reception) []frame.Reception {
	better := func(a, b frame.Reception) bool {
		if len(a.Decisions) != len(b.Decisions) {
			return len(a.Decisions) > len(b.Decisions)
		}
		return a.Kind == frame.SyncPreamble && b.Kind == frame.SyncPostamble
	}
	n := 0
	for i := range recs {
		rec := recs[i]
		if rec.HeaderOK {
			dup := false
			for j := 0; j < n; j++ {
				if recs[j].HeaderOK && recs[j].PayloadStartChip == rec.PayloadStartChip {
					if better(rec, recs[j]) {
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
		recs[n] = rec
		n++
	}
	recs = recs[:n]
	less := func(a, b *frame.Reception) bool {
		if a.PayloadStartChip != b.PayloadStartChip {
			return a.PayloadStartChip < b.PayloadStartChip
		}
		return a.Kind < b.Kind
	}
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && less(&recs[j], &recs[j-1]); j-- {
			recs[j], recs[j-1] = recs[j-1], recs[j]
		}
	}
	return recs
}

// receptionsDiff describes the first difference between two reception
// lists, or returns "" when they are equal field for field.
func receptionsDiff(got, want []frame.Reception) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d receptions, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Kind != w.Kind || g.SyncDist != w.SyncDist || g.HeaderOK != w.HeaderOK || g.Hdr != w.Hdr ||
			g.PayloadStartChip != w.PayloadStartChip || g.MissingPrefix != w.MissingPrefix || g.CRCOK != w.CRCOK {
			return fmt.Sprintf("reception %d: got %v %+v start %d missing %d crc %v, want %v %+v start %d missing %d crc %v",
				i, g.Kind, g.Hdr, g.PayloadStartChip, g.MissingPrefix, g.CRCOK,
				w.Kind, w.Hdr, w.PayloadStartChip, w.MissingPrefix, w.CRCOK)
		}
		if !slices.Equal(g.Decisions, w.Decisions) {
			return fmt.Sprintf("reception %d: %d decisions differ from the reference's %d", i, len(g.Decisions), len(w.Decisions))
		}
		if !slices.Equal(g.PayloadBytes, w.PayloadBytes) {
			return fmt.Sprintf("reception %d: payload bytes differ", i)
		}
	}
	return ""
}

// countingDecoder counts Decode calls: how many codewords a receive call
// despreads.
type countingDecoder struct {
	phy.Decoder
	calls *int
}

func (c countingDecoder) Decode(obs phy.Observation) phy.Decision {
	*c.calls++
	return c.Decoder.Decode(obs)
}

// parityCase is one receive configuration checked against the reference.
type parityCase struct {
	chips        []byte
	bufferChips  int
	usePostamble bool
	dec          phy.Decoder
}

// checkParity runs Receive and the reference on one case. It returns the
// codewords each despread so callers can assert the skip happened.
func checkParity(t *testing.T, name string, c parityCase) (got, ref int) {
	t.Helper()
	if c.dec == nil {
		c.dec = phy.HardDecoder{}
	}
	buf := frame.NewChipBuffer(c.chips)
	var calls int
	rx := frame.NewReceiver(countingDecoder{c.dec, &calls})
	rx.UsePostamble = c.usePostamble
	rx.BufferChips = c.bufferChips
	want := refReceive(countingDecoder{c.dec, &ref}, c.usePostamble, c.bufferChips, buf)
	if d := receptionsDiff(rx.Receive(buf), want); d != "" {
		t.Errorf("%s: %s", name, d)
	}
	got = calls
	// Repeat on the warm receiver: its recycled arenas must not leak state.
	if d := receptionsDiff(rx.Receive(buf), want); d != "" {
		t.Errorf("%s (second call): %s", name, d)
	}
	// ReceiveSynced returns Receive's receptions plus a preamble view that
	// must equal a status-quo (UsePostamble = false) reference. Both views
	// share the arenas, so compare them only once both are out.
	wantPre := refReceive(c.dec, false, c.bufferChips, buf)
	recs, pre := rx.ReceiveSynced(buf, frame.FindSyncs(buf, frame.DefaultSyncMaxDist))
	if d := receptionsDiff(recs, want); d != "" {
		t.Errorf("%s (ReceiveSynced): %s", name, d)
	}
	if d := receptionsDiff(pre, wantPre); d != "" {
		t.Errorf("%s (preamble view): %s", name, d)
	}
	return got, ref
}

// parityStreamsRx builds the receive-parity table: clean frames, frames
// with a jammed preamble or postamble, rollbacks clipped by the horizon or
// by the stream start, frames cut at the stream end, back-to-back frames,
// a header spliced onto another packet's body, and noise.
func parityStreamsRx() map[string]parityCase {
	rng := stats.NewRNG(2107)
	noise := func(n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = byte(rng.Intn(2))
		}
		return out
	}
	payload := func(n int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(rng.Intn(256))
		}
		return p
	}
	air := func(seq uint16, pay []byte) []byte { return frame.New(1, 2, seq, pay).AirChips().Bytes() }
	jam := func(chips []byte, lo, hi int) []byte {
		copy(chips[lo:hi], noise(hi-lo))
		return chips
	}
	headChips := (frame.SyncBytes + frame.HeaderBytes) * frame.ChipsPerByte
	cat := func(parts ...[]byte) []byte { return slices.Concat(parts...) }

	cases := map[string]parityCase{
		"noise":       {chips: noise(40000)},
		"clean0B":     {chips: cat(noise(300), air(1, nil), noise(200))},
		"clean1B":     {chips: cat(noise(77), air(2, payload(1)), noise(91))},
		"clean200B":   {chips: cat(noise(1001), air(3, payload(200)), noise(333))},
		"clean1500B":  {chips: cat(noise(64), air(4, payload(frame.MaxPayload)), noise(64))},
		"zeroPayload": {chips: cat(noise(500), air(5, make([]byte, 120)), noise(500))},
	}
	f := air(6, payload(150))
	cases["preambleJammed"] = parityCase{chips: cat(noise(700), jam(f, 0, headChips), noise(300))}
	f = air(7, payload(150))
	cases["postambleJammed"] = parityCase{chips: cat(noise(700), jam(f, len(f)-headChips, len(f)), noise(300))}
	f = air(8, payload(150))
	cases["payloadNoisy"] = parityCase{chips: cat(noise(123), jam(f, headChips+800, headChips+1400), noise(321))}

	// A 600 B frame received with a 200 B buffer: the rollback stops at
	// the horizon, so the preamble reception wins whenever it exists.
	short := frame.AirChips(200)
	f = air(9, payload(600))
	cases["horizonClipped"] = parityCase{chips: cat(noise(900), f, noise(100)), bufferChips: short}
	f = air(10, payload(600))
	cases["horizonClippedPreambleJammed"] = parityCase{chips: cat(noise(900), jam(f, 0, headChips), noise(100)), bufferChips: short}

	// The stream starts inside the payload: symbols before chip 0 are
	// missing (MissingPrefix > 0, with and without a horizon clip).
	f = air(11, payload(300))
	cases["startsBeforeChip0"] = parityCase{chips: cat(f[headChips+1237:], noise(200))}
	f = air(12, payload(300))
	cases["startsBeforeChip0Horizon"] = parityCase{chips: cat(f[headChips+1237:], noise(200)), bufferChips: frame.AirChips(100)}

	// The stream ends inside the payload or the CRC: the preamble
	// reception is truncated and no postamble exists.
	f = air(13, payload(300))
	cases["truncatedInPayload"] = parityCase{chips: cat(noise(400), f[:headChips+5000])}
	f = air(14, payload(300))
	cases["truncatedInCRC"] = parityCase{chips: cat(noise(400), f[:len(f)-headChips-100])}

	var train []byte
	for i := 0; i < 6; i++ {
		train = append(train, air(uint16(20+i), payload(10+rng.Intn(300)))...)
	}
	cases["backToBack"] = parityCase{chips: train}
	cases["backToBackNoPostamble"] = parityCase{chips: train, usePostamble: false}
	cases["backToBackMF"] = parityCase{chips: train, dec: phy.MatchedFilterDecoder{}}

	// Packet A's preamble and header on packet B's body: both headers
	// verify and name the same payload start, but B's trailer claims a
	// longer payload, so the postamble reception decodes more and wins.
	a, b := air(30, payload(100)), air(31, payload(200))
	cases["splicedHeader"] = parityCase{chips: cat(noise(333), a[:headChips], b[headChips:], noise(99))}

	// Collision: B captures the channel 300 chips before A ends, so A
	// loses its postamble and B survives whole.
	a, b = air(40, payload(250)), air(41, payload(180))
	col := cat(noise(500), a)
	cases["collision"] = parityCase{chips: cat(col[:len(col)-300], b, noise(150))}

	for name, c := range cases {
		if name != "backToBackNoPostamble" {
			c.usePostamble = true
			cases[name] = c
		}
	}
	return cases
}

func TestReceiveMatchesDecodeAll(t *testing.T) {
	skipped := 0
	for name, c := range parityStreamsRx() {
		got, ref := checkParity(t, name, c)
		if got > ref {
			t.Errorf("%s: despread %d codewords, more than the reference's %d", name, got, ref)
		}
		if got < ref {
			skipped++
		}
	}
	if skipped == 0 {
		t.Error("no stream had a superseded rollback to skip")
	}
}

// TestReceiveDespreadsPayloadOnce pins the skip itself: a clean frame is
// despread once — header, payload and CRC from the preamble, then only
// the trailer from the postamble — where the reference despreads the
// payload and CRC a second time. Equal decision counts must suffice.
func TestReceiveDespreadsPayloadOnce(t *testing.T) {
	for _, n := range []int{0, 1, 64, 1500} {
		pay := make([]byte, n)
		for i := range pay {
			pay[i] = byte(i*7 + 3)
		}
		c := parityCase{chips: frame.New(1, 2, 3, pay).AirChips().Bytes(), usePostamble: true}
		got, ref := checkParity(t, fmt.Sprintf("%d B", n), c)
		hdrSyms := frame.HeaderBytes * frame.SymbolsPerByte
		bodySyms := (n + frame.CRC32Bytes) * frame.SymbolsPerByte
		if want := 2*hdrSyms + bodySyms; got != want {
			t.Errorf("%d B: despread %d codewords, want %d", n, got, want)
		}
		if want := 2*hdrSyms + 2*bodySyms; ref != want {
			t.Errorf("%d B: reference despread %d codewords, want %d", n, ref, want)
		}
	}
}

// FuzzReceiveParity embeds up to two frames in arbitrary chip words —
// anywhere, clipped at either end, with the preamble, postamble or payload
// overwritten — and checks Receive against the reference, with and
// without a short rollback buffer.
func FuzzReceiveParity(f *testing.F) {
	f.Add([]byte{0x5a, 0xc3}, uint16(40), int32(100), uint8(0), uint16(0))
	f.Add(make([]byte, 300), uint16(120), int32(-900), uint8(1), uint16(0))
	f.Add([]byte("postamble rollback"), uint16(300), int32(7), uint8(2), uint16(150))
	f.Add([]byte{0xff, 0, 0xff}, uint16(0), int32(64), uint8(8), uint16(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint16(77), int32(-3000), uint8(12), uint16(30))
	f.Fuzz(func(t *testing.T, words []byte, payLen uint16, at int32, mode uint8, bufBytes uint16) {
		if len(words) > 4096 {
			words = words[:4096]
		}
		pay := make([]byte, int(payLen)%400)
		for i := range pay {
			pay[i] = byte(i) ^ byte(payLen>>3)
		}
		fr := frame.New(1, 2, payLen, pay).AirChips().Bytes()
		if mode&8 != 0 {
			fr = append(fr, frame.New(3, 4, payLen+1, pay[len(pay)/2:]).AirChips().Bytes()...)
		}
		head := (frame.SyncBytes + frame.HeaderBytes) * frame.ChipsPerByte
		if mode&1 != 0 {
			clear(fr[:head])
		}
		if mode&2 != 0 {
			clear(fr[len(fr)-head:])
		}
		if mode&4 != 0 {
			for i := head; i < len(fr)-head; i += 23 {
				fr[i] ^= 1
			}
		}
		chips := make([]byte, len(words)*8+len(fr))
		for i := range chips {
			if w := i / 8; w < len(words) {
				chips[i] = words[w] >> (7 - i%8) & 1
			}
		}
		// Place the frame at p in [-len(fr), len(chips)): it may hang off
		// either end of the stream.
		p := int(uint32(at)%uint32(len(chips)+len(fr))) - len(fr)
		for i, c := range fr {
			if j := p + i; j >= 0 && j < len(chips) {
				chips[j] = c
			}
		}
		c := parityCase{chips: chips, usePostamble: true}
		if bufBytes != 0 {
			c.bufferChips = frame.AirChips(int(bufBytes) % frame.MaxPayload)
		}
		got, ref := checkParity(t, "fuzz", c)
		if got > ref {
			t.Errorf("despread %d codewords, more than the reference's %d", got, ref)
		}
	})
}
