package frame_test

import (
	"fmt"
	"testing"

	"ppr/internal/frame"
	"ppr/internal/frame/syncref"
	"ppr/internal/phy"
	"ppr/internal/speedgate"
	"ppr/internal/stats"
)

// Parity suite for the strided sync scanner: frame.FindSyncs must be
// bit-identical to the frozen seed implementation (internal/frame/syncref)
// on every stream — same detections, same offsets, same kinds, same
// distances, same order. The scan is deterministic (no RNG anywhere in the
// decode path), so equality is exact, not statistical.

// syncsEqual compares detection lists field by field.
func syncsEqual(a, b []frame.Sync) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// parityStreams builds the table of chip streams the scan is checked on:
// pure noise, clean and noisy frames at aligned and unaligned offsets,
// zero-length payloads (maximally self-similar sync padding), collisions,
// and truncated tails.
func parityStreams() map[string][]byte {
	rng := stats.NewRNG(77)
	noise := func(n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = byte(rng.Intn(2))
		}
		return out
	}
	flip := func(chips []byte, rate float64) []byte {
		out := append([]byte(nil), chips...)
		for i := range out {
			if rng.Bool(rate) {
				out[i] ^= 1
			}
		}
		return out
	}
	frameChips := func(pay []byte) []byte {
		return frame.New(1, 2, 3, pay).AirChips().Bytes()
	}

	streams := map[string][]byte{
		"empty":        {},
		"short":        noise(100),
		"noise50k":     noise(50000),
		"cleanFrame":   frameChips([]byte("payload")),
		"zeroPayload":  frameChips(nil),
		"noisyFrame3%": flip(frameChips(make([]byte, 64)), 0.03),
		"noisyFrame8%": flip(frameChips(make([]byte, 64)), 0.08),
	}

	// Frame at an odd, unaligned offset surrounded by noise.
	off := append(noise(1237), frameChips([]byte("offset"))...)
	streams["offsetFrame"] = append(off, noise(301)...)

	// Two back-to-back frames, the second with its preamble region
	// overwritten by the tail of a third (collision by replacement).
	a := frameChips(make([]byte, 40))
	b := frameChips([]byte("second packet"))
	collide := append(append([]byte{}, a...), noise(517)...)
	start := len(collide)
	collide = append(collide, b...)
	interferer := frameChips([]byte("x"))
	copy(collide[start:], interferer[len(interferer)-400:])
	streams["collision"] = collide

	// Frame truncated mid-postamble: scan must clip cleanly at the end.
	c := frameChips([]byte("truncated"))
	streams["truncated"] = c[:len(c)-frame.SyncChips/2]

	// Noise with near-sync content: splice real sync padding fragments in.
	near := noise(20000)
	pad := frameChips(nil)[:frame.SyncChips]
	for i := 0; i+len(pad) < len(near); i += 2777 {
		copy(near[i:], pad[:frame.SyncChips-17])
	}
	streams["nearSync"] = near

	return streams
}

func TestFindSyncsMatchesSyncref(t *testing.T) {
	for name, chips := range parityStreams() {
		buf := frame.NewChipBuffer(chips)
		for _, maxDist := range []int{0, 5, frame.DefaultSyncMaxDist, 25, 32} {
			got := frame.FindSyncs(buf, maxDist)
			want := syncref.FindSyncs(buf, maxDist)
			if !syncsEqual(got, want) {
				t.Errorf("%s maxDist=%d:\n got %+v\nwant %+v", name, maxDist, got, want)
			}
		}
	}
}

// strideSegChips is the strided scan's segment length: the seven 64-chip
// windows at one-codeword steps inside the 256-chip sync pad.
const strideSegChips = 7 * 32

// strideMaxDists spans the thresholds that change which probes hit: the
// default, exact-match, both sides of one 64-chip window's reach (63, 64)
// and one far past it, where every probe hits.
var strideMaxDists = []int{0, 1, frame.DefaultSyncMaxDist, 40, 63, 64, 200}

// strideStream is one boundary case for the strided scan. at >= 0 marks a
// pattern planted without chip errors, which the reference must report
// there at distance 0 — so the table cannot pass vacuously.
type strideStream struct {
	name  string
	chips []byte
	at    int
}

// strideEdgeStreams builds the streams that sit on the strided scan's
// segment boundaries: every buffer length from one pattern to two segments
// plus a probe word past it (a pattern ending exactly at the buffer's end,
// so offset limit, from limit = 0 through the tail segments), a clean and
// a noisy pattern at every residue mod the segment length (offset 0
// included), and patterns whose chip errors all sit inside one 32-chip pad
// sub-window, the window a single probe sees.
func strideEdgeStreams() []strideStream {
	rng := stats.NewRNG(224)
	noise := func(n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = byte(rng.Intn(2))
		}
		return out
	}
	air := frame.New(1, 2, 3, nil).AirChips().Bytes()
	patterns := [2][]byte{air[:frame.SyncChips], air[len(air)-frame.SyncChips:]}
	// plant copies pattern i%2 to off and flips `flips` distinct chips of
	// it, drawn from [lo, hi) of the pattern.
	plant := func(dst []byte, off, i, flips, lo, hi int) {
		copy(dst[off:], patterns[i%2])
		for _, j := range rng.Perm(hi - lo)[:flips] {
			dst[off+lo+j] ^= 1
		}
	}
	var out []strideStream
	for n := frame.SyncChips; n <= frame.SyncChips+2*strideSegChips+64; n++ {
		chips := noise(n)
		flips := n % 3
		plant(chips, n-frame.SyncChips, n, flips, 0, frame.SyncChips)
		at := -1
		if flips == 0 {
			at = n - frame.SyncChips
		}
		out = append(out, strideStream{fmt.Sprintf("len%d", n), chips, at})
	}
	for res := 0; res < strideSegChips; res++ {
		tail := res * 7 % 64
		clean := noise(res + frame.SyncChips + tail)
		plant(clean, res, res, 0, 0, frame.SyncChips)
		out = append(out, strideStream{fmt.Sprintf("clean@%d", res), clean, res})
		off := strideSegChips + res
		noisy := noise(off + frame.SyncChips + tail)
		plant(noisy, off, res+1, 1+res%8, 0, frame.SyncChips)
		out = append(out, strideStream{fmt.Sprintf("noisy@%d", off), noisy, -1})
	}
	for win := 0; win < frame.SyncPadBytes*frame.SymbolsPerByte; win++ {
		for _, flips := range []int{1, 8, 20, 21, 32} {
			off := 3*strideSegChips + 5*win + flips
			chips := noise(off + frame.SyncChips + 200)
			plant(chips, off, win, flips, 32*win, 32*win+32)
			out = append(out, strideStream{fmt.Sprintf("window%d/flips%d", win, flips), chips, -1})
		}
	}
	return out
}

// TestFindSyncsStrideBoundaries pins the strided scan to the reference on
// the streams where a segment-tiling or probe-derivation slip would show:
// buffer ends, every residue mod the stride, and errors that a single probe
// window absorbs whole.
func TestFindSyncsStrideBoundaries(t *testing.T) {
	for _, st := range strideEdgeStreams() {
		buf := frame.NewChipBuffer(st.chips)
		for _, maxDist := range strideMaxDists {
			got := frame.FindSyncs(buf, maxDist)
			want := syncref.FindSyncs(buf, maxDist)
			if !syncsEqual(got, want) {
				t.Errorf("%s maxDist=%d:\n got %+v\nwant %+v", st.name, maxDist, got, want)
			}
			if st.at >= 0 && maxDist == 0 && !hasSyncAt(want, st.at) {
				t.Errorf("%s: reference misses the clean pattern at %d: %+v", st.name, st.at, want)
			}
		}
	}
}

// symbolRunStreams builds DSSS streams around runs of 2–8 equal symbols
// 0–7. Codewords 0–7 are 4-chip rotations of one another, so such a run
// repeats the sync pad's 32-chip period at a shifted phase: its probes hit
// and the pruning walk runs, over as many passing windows as the run
// allows. Each run carries 0, half of or exactly DefaultSyncMaxDist chip
// errors, and sits at a buffer end — starting a few chips in, ending a few
// chips short — or just before a clean preamble at the buffer's end.
func symbolRunStreams() []strideStream {
	rng := stats.NewRNG(2007)
	noise := func(n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = byte(rng.Intn(2))
		}
		return out
	}
	symbols := func(n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = byte(rng.Intn(16))
		}
		return phy.ChipsOf(phy.SpreadSymbols(out))
	}
	preamble := frame.New(1, 2, 3, nil).AirChips().Bytes()[:frame.SyncChips]
	var out []strideStream
	for runLen := 2; runLen <= 8; runLen++ {
		for sym := byte(0); sym < 8; sym++ {
			run := make([]byte, runLen)
			for i := range run {
				run[i] = sym
			}
			runChips := phy.ChipsOf(phy.SpreadSymbols(run))
			flips := []int{0, frame.DefaultSyncMaxDist / 2, frame.DefaultSyncMaxDist}[(runLen+int(sym))%3]
			for _, j := range rng.Perm(len(runChips))[:flips] {
				runChips[j] ^= 1
			}
			shift := (7*runLen + int(sym)) % 32
			name := fmt.Sprintf("run%dx%d/flips%d", runLen, sym, flips)
			start := append(append(noise(shift), runChips...), symbols(12)...)
			out = append(out, strideStream{name + "@start", start, -1})
			end := append(append(symbols(12), runChips...), noise(shift)...)
			out = append(out, strideStream{name + "@end", end, -1})
			sync := append(append(symbols(6), runChips...), preamble...)
			out = append(out, strideStream{name + "+preamble", sync, len(sync) - frame.SyncChips})
		}
	}
	return out
}

// TestFindSyncsSymbolRuns pins the pruned scan to the reference on the
// streams where neighbour pruning decides: runs of equal low symbols,
// noisy up to the threshold, against both buffer ends and a genuine sync.
func TestFindSyncsSymbolRuns(t *testing.T) {
	for _, st := range symbolRunStreams() {
		buf := frame.NewChipBuffer(st.chips)
		for _, maxDist := range strideMaxDists {
			got := frame.FindSyncs(buf, maxDist)
			want := syncref.FindSyncs(buf, maxDist)
			if !syncsEqual(got, want) {
				t.Errorf("%s maxDist=%d:\n got %+v\nwant %+v", st.name, maxDist, got, want)
			}
			if st.at >= 0 && maxDist == 0 && !hasSyncAt(want, st.at) {
				t.Errorf("%s: reference misses the clean preamble at %d: %+v", st.name, st.at, want)
			}
		}
	}
}

// hasSyncAt reports whether syncs holds a distance-0 detection at off.
func hasSyncAt(syncs []frame.Sync, off int) bool {
	for _, s := range syncs {
		if s.ChipOffset == off && s.Dist == 0 {
			return true
		}
	}
	return false
}

// packChips packs a chip-per-byte stream eight chips per byte, MSB first,
// the fuzz input encoding; a trailing partial byte is dropped.
func packChips(chips []byte) []byte {
	packed := make([]byte, 0, len(chips)/8+1)
	var acc byte
	for i, c := range chips {
		acc = acc<<1 | c&1
		if i%8 == 7 {
			packed = append(packed, acc)
			acc = 0
		}
	}
	return packed
}

// FuzzFindSyncsParity fuzzes the scanner against the frozen reference over
// arbitrary packed chip content. Each input byte becomes 8 chips.
func FuzzFindSyncsParity(f *testing.F) {
	for _, chips := range parityStreams() {
		f.Add(packChips(chips), frame.DefaultSyncMaxDist)
	}
	for i, st := range strideEdgeStreams() {
		f.Add(packChips(st.chips), strideMaxDists[i%len(strideMaxDists)])
	}
	for i, st := range symbolRunStreams() {
		f.Add(packChips(st.chips), strideMaxDists[i%len(strideMaxDists)])
	}
	f.Fuzz(func(t *testing.T, data []byte, maxDist int) {
		if len(data) > 1<<16 {
			data = data[:1<<16]
		}
		if maxDist < 0 || maxDist > frame.SyncChips {
			maxDist = frame.DefaultSyncMaxDist
		}
		chips := make([]byte, len(data)*8)
		for i, b := range data {
			for j := 0; j < 8; j++ {
				chips[i*8+j] = b >> uint(7-j) & 1
			}
		}
		buf := frame.NewChipBuffer(chips)
		got := frame.FindSyncs(buf, maxDist)
		want := syncref.FindSyncs(buf, maxDist)
		if !syncsEqual(got, want) {
			t.Fatalf("divergence on %d chips maxDist=%d:\n got %+v\nwant %+v",
				len(chips), maxDist, got, want)
		}
	})
}

// TestFindSyncsSpeedGate enforces the PR's performance floor: the
// strided scan must beat the frozen seed implementation by at least 3x on
// a realistic stream (noise with embedded frames). The margin in practice
// is far larger; 3x keeps the gate robust on slow CI machines, and
// interleaved rounds keep it robust against load from sibling packages.
func TestFindSyncsSpeedGate(t *testing.T) {
	if testing.Short() {
		t.Skip("speed gate skipped in -short")
	}
	rng := stats.NewRNG(99)
	chips := make([]byte, 0, 300000)
	noise := make([]byte, 30000)
	for f := 0; f < 4; f++ {
		for i := range noise {
			noise[i] = byte(rng.Intn(2))
		}
		chips = append(chips, noise...)
		chips = append(chips, frame.New(1, 2, uint16(f), make([]byte, 200)).AirChips().Bytes()...)
	}
	buf := frame.NewChipBuffer(chips)

	var syncs []frame.Sync
	res := speedgate.Compare(
		func() { syncs = frame.AppendSyncs(syncs[:0], buf, frame.DefaultSyncMaxDist) },
		func() { syncref.FindSyncs(buf, frame.DefaultSyncMaxDist) })
	t.Logf("sync scan: new %.0f ns/op ref %.0f ns/op ratio %.1fx (medians of %d interleaved rounds)",
		res.FastNs, res.RefNs, res.Ratio, speedgate.Rounds)
	if res.Ratio < 3 {
		t.Errorf("strided scan only %.2fx faster than syncref, want >= 3x", res.Ratio)
	}
}

// TestReceiveSteadyStateAllocs pins the zero-alloc contract of the receive
// path: once the Receiver's scratch arenas have grown to the stream's
// working set, Receive allocates nothing.
func TestReceiveSteadyStateAllocs(t *testing.T) {
	rng := stats.NewRNG(42)
	chips := make([]byte, 0, 200000)
	noise := make([]byte, 5000)
	for f := 0; f < 3; f++ {
		for i := range noise {
			noise[i] = byte(rng.Intn(2))
		}
		chips = append(chips, noise...)
		fr := frame.New(1, 2, uint16(f), make([]byte, 150)).AirChips().Bytes()
		// Light chip noise so the decode path sees non-trivial distances.
		for i := range fr {
			if rng.Bool(0.01) {
				fr[i] ^= 1
			}
		}
		chips = append(chips, fr...)
	}
	buf := frame.NewChipBuffer(chips)
	rx := frame.NewReceiver(phy.HardDecoder{})

	recs := rx.Receive(buf) // grow the arenas once
	if len(recs) == 0 {
		t.Fatal("test stream produced no receptions")
	}
	allocs := testing.AllocsPerRun(50, func() {
		if got := rx.Receive(buf); len(got) != len(recs) {
			t.Fatalf("reception count changed: %d != %d", len(got), len(recs))
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Receive allocates %.1f times per call, want 0", allocs)
	}
}

// TestReceiveSyncedGoldenCollisionStream pins the receiver's behaviour on a
// deterministic multi-packet collision stream: packet A delivered whole via
// its preamble, packet B's preamble destroyed by an interferer and
// recovered via postamble rollback, receptions ordered by payload position.
func TestReceiveSyncedGoldenCollisionStream(t *testing.T) {
	payA := []byte("packet A payload: 0123456789")
	payB := []byte("packet B payload, longer than A's: abcdefghijklmnopqrstuvwxyz")
	fa := frame.New(1, 2, 10, payA)
	fb := frame.New(1, 3, 20, payB)

	rng := stats.NewRNG(7)
	noise := func(n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = byte(rng.Intn(2))
		}
		return out
	}

	chips := noise(997)
	aStart := len(chips)
	chips = append(chips, fa.AirChips().Bytes()...)
	chips = append(chips, noise(333)...)
	bStart := len(chips)
	bChips := fb.AirChips().Bytes()
	// Destroy B's preamble and header with random chips — only the
	// postamble path can recover it.
	wreck := noise((frame.SyncBytes + frame.HeaderBytes) * frame.ChipsPerByte)
	copy(bChips, wreck)
	chips = append(chips, bChips...)
	chips = append(chips, noise(501)...)

	buf := frame.NewChipBuffer(chips)
	rx := frame.NewReceiver(phy.HardDecoder{})
	recs := rx.Receive(buf)

	var verified []frame.Reception
	for _, rec := range recs {
		if rec.HeaderOK {
			verified = append(verified, rec)
		}
	}
	if len(verified) != 2 {
		t.Fatalf("got %d verified receptions, want 2: %+v", len(verified), recs)
	}
	a, b := verified[0], verified[1]

	wantAStart := aStart + (frame.SyncBytes+frame.HeaderBytes)*frame.ChipsPerByte
	if a.Kind != frame.SyncPreamble || a.PayloadStartChip != wantAStart {
		t.Errorf("A: kind %v start %d, want preamble at %d", a.Kind, a.PayloadStartChip, wantAStart)
	}
	if !a.CRCOK || a.MissingPrefix != 0 || string(a.PayloadBytes) != string(payA) {
		t.Errorf("A not delivered whole: crc=%v missing=%d payload=%q",
			a.CRCOK, a.MissingPrefix, a.PayloadBytes)
	}

	wantBStart := bStart + (frame.SyncBytes+frame.HeaderBytes)*frame.ChipsPerByte
	if b.Kind != frame.SyncPostamble || b.PayloadStartChip != wantBStart {
		t.Errorf("B: kind %v start %d, want postamble at %d", b.Kind, b.PayloadStartChip, wantBStart)
	}
	if !b.CRCOK || b.MissingPrefix != 0 || string(b.PayloadBytes) != string(payB) {
		t.Errorf("B not recovered via postamble: crc=%v missing=%d payload=%q",
			b.CRCOK, b.MissingPrefix, b.PayloadBytes)
	}
	if b.Hdr.Src != 3 || b.Hdr.Seq != 20 || int(b.Hdr.Length) != len(payB) {
		t.Errorf("B header %+v", b.Hdr)
	}
}
