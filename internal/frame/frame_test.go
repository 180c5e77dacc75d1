package frame

import (
	"bytes"
	"testing"
	"testing/quick"

	"ppr/internal/bitutil"
	"ppr/internal/crcutil"
	"ppr/internal/phy"
	"ppr/internal/stats"
)

func TestHeaderEncodeParseRoundTrip(t *testing.T) {
	f := func(length, dst, src, seq uint16) bool {
		length %= MaxPayload + 1
		h := Header{Length: length, Dst: dst, Src: src, Seq: seq}
		if h == (Header{}) {
			h.Seq = 1 // the all-zero header is deliberately unparseable
		}
		got, ok := ParseHeader(h.appendTo(nil))
		return ok && got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseHeaderRejectsAllZero(t *testing.T) {
	// CRC-16(eight zero bytes) is zero, so the all-zero buffer would
	// otherwise "verify" — and zero-filled payload runs look exactly like
	// it after a spurious postamble sync.
	if _, ok := ParseHeader(make([]byte, HeaderBytes)); ok {
		t.Error("accepted the all-zero header")
	}
}

func TestParseHeaderRejectsCorruption(t *testing.T) {
	h := Header{Length: 100, Dst: 1, Src: 2, Seq: 3}
	enc := h.appendTo(nil)
	for bit := 0; bit < len(enc)*8; bit++ {
		enc[bit/8] ^= 1 << uint(bit%8)
		if _, ok := ParseHeader(enc); ok {
			t.Fatalf("bit flip %d accepted", bit)
		}
		enc[bit/8] ^= 1 << uint(bit%8)
	}
}

func TestParseHeaderRejectsOversizeLength(t *testing.T) {
	h := Header{Length: MaxPayload + 1}
	if _, ok := ParseHeader(h.appendTo(nil)); ok {
		t.Error("accepted length beyond MaxPayload")
	}
}

func TestParseHeaderRejectsWrongSize(t *testing.T) {
	if _, ok := ParseHeader(make([]byte, HeaderBytes-1)); ok {
		t.Error("accepted short buffer")
	}
}

func TestAirBytesLayout(t *testing.T) {
	payload := []byte("hello, wireless world")
	f := New(7, 3, 42, payload)
	air := f.AirBytes()
	if len(air) != AirBytes(len(payload)) {
		t.Fatalf("air length %d, want %d", len(air), AirBytes(len(payload)))
	}
	// Preamble pad + SFD at the front.
	for i := 0; i < SyncPadBytes; i++ {
		if air[i] != 0 {
			t.Errorf("preamble pad byte %d = %#x", i, air[i])
		}
	}
	if air[SyncPadBytes] != SFD {
		t.Errorf("SFD = %#x", air[SyncPadBytes])
	}
	// Postamble pad + PSFD at the back.
	if air[len(air)-1] != PSFD {
		t.Errorf("PSFD = %#x", air[len(air)-1])
	}
	// Header and trailer are identical replicas.
	hdr := air[SyncBytes : SyncBytes+HeaderBytes]
	trailerStart := len(air) - SyncBytes - HeaderBytes
	trailer := air[trailerStart : trailerStart+HeaderBytes]
	if !bytes.Equal(hdr, trailer) {
		t.Error("trailer does not replicate header")
	}
	// Payload is in place.
	if !bytes.Equal(air[SyncBytes+HeaderBytes:SyncBytes+HeaderBytes+len(payload)], payload) {
		t.Error("payload not found at expected offset")
	}
}

func TestNewPanicsOnOversizePayload(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, 0, 0, make([]byte, MaxPayload+1))
}

func TestAirChipsLength(t *testing.T) {
	f := New(1, 2, 3, make([]byte, 50))
	if got := f.AirChips().Len(); got != AirChips(50) {
		t.Errorf("chips %d, want %d", got, AirChips(50))
	}
}

// TestAirChipsMatchesBytePath checks the transmit path against its
// construction from first principles on random frames of 0…MaxPayload
// bytes: the air bytes laid out with the CRC-32 of the concatenated header
// fields and payload, spread codeword by codeword, packed chip by chip.
func TestAirChipsMatchesBytePath(t *testing.T) {
	rng := stats.NewRNG(2108)
	// AirChipsInto reuses one chip buffer and one air-byte scratch across
	// the sizes, shrinking after the largest, and must match AirChips.
	var chips ChipBuffer
	var air []byte
	for _, n := range []int{0, 1, 2, 99, 600, MaxPayload - 1, MaxPayload, 256, 3} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(rng.Intn(256))
		}
		f := New(uint16(rng.Intn(1<<16)), 2, uint16(n), payload)
		hdr := f.Hdr.appendTo(nil)
		var want []byte
		want = append(want, 0, 0, 0, 0, SFD)
		want = append(want, hdr...)
		want = append(want, payload...)
		want = crcutil.Append32(want, append(append([]byte(nil), hdr[:HeaderFieldBytes]...), payload...))
		want = append(want, hdr...)
		want = append(want, 0, 0, 0, 0, PSFD)
		if got := f.AirBytes(); !bytes.Equal(got, want) {
			t.Fatalf("%d B: air bytes differ from the reference layout", n)
		}
		wantChips := bitutil.PackChipBytes(phy.ChipsOf(phy.SpreadBytes(want)))
		if got := f.AirChips(); got.Len() != wantChips.Len() || !bytes.Equal(got.Bytes(), wantChips.Bytes()) {
			t.Fatalf("%d B: air chips differ from the codeword path", n)
		}
		air = f.AirChipsInto(&chips, air)
		if !bytes.Equal(air, want) || chips.Len() != wantChips.Len() || !bytes.Equal(chips.Bytes(), wantChips.Bytes()) {
			t.Fatalf("%d B: AirChipsInto on reused buffers differs from the codeword path", n)
		}
		chips.Fill(0, chips.Len(), 1)
	}
}

func TestChipBufferWord32(t *testing.T) {
	rng := stats.NewRNG(1)
	chips := make([]byte, 500)
	for i := range chips {
		chips[i] = byte(rng.Intn(2))
	}
	buf := NewChipBuffer(chips)
	for off := 0; off+32 <= len(chips); off += 7 {
		var want uint32
		for i := 0; i < 32; i++ {
			if chips[off+i] != 0 {
				want |= 1 << uint(31-i)
			}
		}
		if got := buf.Word32(off); got != want {
			t.Fatalf("Word32(%d) = %#x, want %#x", off, got, want)
		}
	}
}

func TestChipBufferWord32Boundary(t *testing.T) {
	chips := make([]byte, 96)
	chips[63], chips[64], chips[95] = 1, 1, 1
	buf := NewChipBuffer(chips)
	// Window straddling the word boundary.
	got := buf.Word32(48)
	var want uint32
	want |= 1 << uint(31-(63-48))
	want |= 1 << uint(31-(64-48))
	if got != want {
		t.Errorf("straddling window %#x, want %#x", got, want)
	}
	// Window at offset 64 covers chips 64..95: chip 64 at bit 31, chip 95
	// at bit 0.
	if got := buf.Word32(64); got != 0x80000001 {
		t.Errorf("last window %#x, want 0x80000001", got)
	}
}

func TestChipBufferPanicsOutOfRange(t *testing.T) {
	buf := NewChipBuffer(make([]byte, 40))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	buf.Word32(9)
}

func TestFindSyncsCleanFrame(t *testing.T) {
	f := New(1, 2, 3, []byte("payload"))
	chips := f.AirChips()
	syncs := FindSyncs(chips, 0)
	if len(syncs) != 2 {
		t.Fatalf("got %d syncs, want 2: %+v", len(syncs), syncs)
	}
	if syncs[0].Kind != SyncPreamble || syncs[0].ChipOffset != 0 {
		t.Errorf("first sync %+v", syncs[0])
	}
	wantPost := chips.Len() - SyncChips
	if syncs[1].Kind != SyncPostamble || syncs[1].ChipOffset != wantPost {
		t.Errorf("second sync %+v, want postamble at %d", syncs[1], wantPost)
	}
}

func TestFindSyncsWithChipNoise(t *testing.T) {
	rng := stats.NewRNG(2)
	f := New(1, 2, 3, make([]byte, 100))
	chips := f.AirChips()
	// 3% chip error rate across the whole stream.
	for i := 0; i < chips.Len(); i++ {
		if rng.Bool(0.03) {
			chips.FlipBit(i)
		}
	}
	syncs := FindSyncs(chips, DefaultSyncMaxDist)
	if len(syncs) != 2 || syncs[0].Kind != SyncPreamble || syncs[1].Kind != SyncPostamble {
		t.Fatalf("noisy syncs: %+v", syncs)
	}
}

func TestFindSyncsNoFalseLocksOnNoise(t *testing.T) {
	rng := stats.NewRNG(3)
	chips := make([]byte, 50000)
	for i := range chips {
		chips[i] = byte(rng.Intn(2))
	}
	if syncs := FindSyncs(NewChipBuffer(chips), DefaultSyncMaxDist); len(syncs) != 0 {
		t.Errorf("false locks on pure noise: %+v", syncs)
	}
}

func TestFindSyncsOffsetFrame(t *testing.T) {
	// Frame embedded mid-stream at a non-aligned chip offset.
	f := New(9, 8, 7, []byte("offset test"))
	pre := make([]byte, 1237)
	rng := stats.NewRNG(4)
	for i := range pre {
		pre[i] = byte(rng.Intn(2))
	}
	chips := append(pre, f.AirChips().Bytes()...)
	chips = append(chips, pre[:301]...)
	syncs := FindSyncs(NewChipBuffer(chips), DefaultSyncMaxDist)
	if len(syncs) != 2 {
		t.Fatalf("got %+v", syncs)
	}
	if syncs[0].ChipOffset != 1237 {
		t.Errorf("preamble at %d, want 1237", syncs[0].ChipOffset)
	}
}

func TestPacketCRC32OK(t *testing.T) {
	f := New(1, 2, 3, []byte("check me"))
	air := f.AirBytes()
	hdrFields := air[SyncBytes : SyncBytes+HeaderFieldBytes]
	payload := air[SyncBytes+HeaderBytes : SyncBytes+HeaderBytes+len(f.Payload)]
	crc := air[SyncBytes+HeaderBytes+len(f.Payload) : SyncBytes+HeaderBytes+len(f.Payload)+CRC32Bytes]
	if !PacketCRC32OK(hdrFields, payload, crc) {
		t.Error("valid packet CRC rejected")
	}
	bad := append([]byte(nil), payload...)
	bad[0] ^= 1
	if PacketCRC32OK(hdrFields, bad, crc) {
		t.Error("corrupted payload accepted")
	}
}

func TestReceiveCleanFrame(t *testing.T) {
	payload := []byte("the quick brown fox jumps over the lazy dog")
	f := New(10, 20, 30, payload)
	r := NewReceiver(phy.HardDecoder{})
	recs := r.Receive(f.AirChips())
	if len(recs) != 1 {
		t.Fatalf("got %d receptions: %+v", len(recs), recs)
	}
	rec := recs[0]
	if rec.Kind != SyncPreamble {
		t.Errorf("kind %v, want preamble (dedupe should prefer it)", rec.Kind)
	}
	if !rec.HeaderOK || rec.Hdr != f.Hdr {
		t.Errorf("header %+v ok=%v", rec.Hdr, rec.HeaderOK)
	}
	if !rec.CRCOK {
		t.Error("clean frame failed CRC")
	}
	if !bytes.Equal(rec.PayloadBytes, payload) {
		t.Errorf("payload mismatch")
	}
	if rec.MissingPrefix != 0 {
		t.Errorf("missing prefix %d", rec.MissingPrefix)
	}
	for i, d := range rec.Decisions {
		if d.Hint != 0 {
			t.Fatalf("clean symbol %d has hint %v", i, d.Hint)
		}
	}
}

func TestReceiveDestroyedPreambleRecoversViaPostamble(t *testing.T) {
	payload := make([]byte, 200)
	rng := stats.NewRNG(5)
	for i := range payload {
		payload[i] = byte(rng.Intn(256))
	}
	f := New(1, 2, 3, payload)
	chips := f.AirChips()
	// Obliterate the preamble and header: the first sync+header chips become
	// random, as a strong colliding packet would leave them.
	ruined := (SyncBytes + HeaderBytes) * ChipsPerByte
	chips.FillUniform(0, ruined, rng.Uint64)
	r := NewReceiver(phy.HardDecoder{})
	recs := r.Receive(chips)
	var got *Reception
	for i := range recs {
		if recs[i].HeaderOK {
			got = &recs[i]
		}
	}
	if got == nil {
		t.Fatalf("no header-verified reception: %+v", recs)
	}
	if got.Kind != SyncPostamble {
		t.Errorf("kind %v, want postamble", got.Kind)
	}
	if got.Hdr != f.Hdr {
		t.Errorf("trailer header %+v, want %+v", got.Hdr, f.Hdr)
	}
	if !bytes.Equal(got.PayloadBytes, payload) {
		t.Error("rollback payload mismatch")
	}
	if !got.CRCOK {
		t.Error("rollback CRC should verify on intact payload")
	}
}

func TestReceivePostambleDisabled(t *testing.T) {
	f := New(1, 2, 3, make([]byte, 50))
	chips := f.AirChips()
	rng := stats.NewRNG(6)
	ruined := (SyncBytes + HeaderBytes) * ChipsPerByte
	chips.FillUniform(0, ruined, rng.Uint64)
	r := NewReceiver(phy.HardDecoder{})
	r.UsePostamble = false
	for _, rec := range r.Receive(chips) {
		if rec.HeaderOK {
			t.Fatalf("status-quo receiver recovered a packet with a destroyed preamble: %+v", rec)
		}
	}
}

func TestReceiveRollbackHorizonTruncates(t *testing.T) {
	// Shrink the circular buffer below the packet size: the front of the
	// payload must be reported missing, and the rest decoded.
	payload := make([]byte, 300)
	for i := range payload {
		payload[i] = byte(i)
	}
	f := New(1, 2, 3, payload)
	chips := f.AirChips()
	rng := stats.NewRNG(7)
	ruined := (SyncBytes + HeaderBytes) * ChipsPerByte
	chips.FillUniform(0, ruined, rng.Uint64)
	r := NewReceiver(phy.HardDecoder{})
	r.BufferChips = AirChips(150) // buffer holds only half the packet
	var got *Reception
	for _, rec := range r.Receive(chips) {
		if rec.HeaderOK {
			cp := rec
			got = &cp
		}
	}
	if got == nil {
		t.Fatal("no reception")
	}
	if got.MissingPrefix == 0 {
		t.Fatal("expected a missing prefix with a small buffer")
	}
	if got.CRCOK {
		t.Error("CRC cannot verify with missing symbols")
	}
	// Decoded tail must match the true payload.
	startByte := (got.MissingPrefix + 1) / 2
	if !bytes.Equal(got.PayloadBytes[startByte:], payload[startByte:]) {
		t.Error("decoded tail does not match transmitted payload")
	}
}

func TestReceiveCorruptPayloadHintsMarkErrors(t *testing.T) {
	payload := make([]byte, 100)
	f := New(4, 5, 6, payload)
	chips := f.AirChips()
	// Corrupt a burst in the middle of the payload only.
	payloadStart := (SyncBytes + HeaderBytes) * ChipsPerByte
	burstStart := payloadStart + 40*ChipsPerByte
	rng := stats.NewRNG(8)
	chips.FillUniform(burstStart, burstStart+20*ChipsPerByte, rng.Uint64)
	r := NewReceiver(phy.HardDecoder{})
	recs := r.Receive(chips)
	if len(recs) != 1 || !recs[0].HeaderOK {
		t.Fatalf("recs: %+v", recs)
	}
	rec := recs[0]
	if rec.CRCOK {
		t.Error("corrupted packet passed CRC")
	}
	// Hints inside the burst must be large on average, outside near zero.
	var inBurst, outBurst []float64
	for i, d := range rec.Decisions {
		if i >= 80 && i < 120 {
			inBurst = append(inBurst, float64(d.Hint))
		} else {
			outBurst = append(outBurst, float64(d.Hint))
		}
	}
	if stats.Mean(inBurst) < 4 {
		t.Errorf("burst hints too low: %v", stats.Mean(inBurst))
	}
	if stats.Mean(outBurst) > 0.5 {
		t.Errorf("clean hints too high: %v", stats.Mean(outBurst))
	}
}

func TestReceiveBackToBackFrames(t *testing.T) {
	f1 := New(1, 2, 3, []byte("first frame payload"))
	f2 := New(1, 4, 9, []byte("second frame payload x"))
	chips := append(f1.AirChips().Bytes(), f2.AirChips().Bytes()...)
	r := NewReceiver(phy.HardDecoder{})
	recs := r.Receive(NewChipBuffer(chips))
	var okCount int
	for _, rec := range recs {
		if rec.HeaderOK && rec.CRCOK {
			okCount++
		}
	}
	if okCount != 2 {
		t.Fatalf("recovered %d of 2 back-to-back frames: %+v", okCount, recs)
	}
}

func TestSyncKindString(t *testing.T) {
	if SyncPreamble.String() != "preamble" || SyncPostamble.String() != "postamble" {
		t.Error("SyncKind strings")
	}
}

func TestAirSizeFormula(t *testing.T) {
	// 5 + 10 + N + 4 + 10 + 5 = N + 34
	if AirBytes(0) != 34 {
		t.Errorf("AirBytes(0) = %d", AirBytes(0))
	}
	if AirBytes(1500) != 1534 {
		t.Errorf("AirBytes(1500) = %d", AirBytes(1500))
	}
	if AirChips(10) != 44*ChipsPerByte {
		t.Errorf("AirChips(10) = %d", AirChips(10))
	}
}
