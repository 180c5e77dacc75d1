package schemes

import (
	"testing"

	"ppr/internal/bitutil"
	"ppr/internal/phy"
	"ppr/internal/sim"
)

func decision(sym byte, hint uint8) phy.Decision {
	return phy.Decision{Symbol: sym, Hint: hint}
}

// cleanOutcome builds a fully-decoded, fully-correct outcome for a payload
// of payloadBytes (two 4-bit symbols per byte).
func cleanOutcome(payloadBytes int) *sim.Outcome {
	truth := make([]byte, payloadBytes*2)
	o := &sim.Outcome{Acquired: true, TruthSyms: truth}
	for range truth {
		o.Decisions = append(o.Decisions, decision(0, 0))
	}
	return o
}

// corrupt flips the decoded value of the given symbol indexes.
func corrupt(o *sim.Outcome, idxs ...int) *sim.Outcome {
	for _, idx := range idxs {
		d := o.Decisions[idx-o.MissingPrefix]
		d.Symbol = (d.Symbol + 5) % 16
		o.Decisions[idx-o.MissingPrefix] = d
	}
	return o
}

// ---- Registry ----

func TestRegistryNamesAndOrder(t *testing.T) {
	all := All()
	if len(all) < 6 {
		t.Fatalf("%d registered schemes, want >= 6", len(all))
	}
	// Presentation order: the paper's three first, coding extensions after.
	wantFirst := []string{"Packet CRC", "Fragmented CRC", "PPR", "FEC", "FEC+interleaving", "PPR+FEC"}
	for i, want := range wantFirst {
		if all[i].Name() != want {
			t.Errorf("All()[%d] = %q, want %q", i, all[i].Name(), want)
		}
	}
	std := Standard()
	if len(std) != 3 || std[0].Name() != "Packet CRC" || std[2].Name() != "PPR" {
		t.Errorf("Standard() = %v", std)
	}
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Names() not sorted: %v", names)
		}
	}
}

func TestRegistryByName(t *testing.T) {
	for slug, want := range map[string]string{
		"ppr":              "PPR",
		"packet-crc":       "Packet CRC",
		"Packet CRC":       "Packet CRC", // display names resolve too
		"fec-interleaving": "FEC+interleaving",
		"PPR+FEC":          "PPR+FEC",
	} {
		s, err := ByName(slug)
		if err != nil {
			t.Errorf("ByName(%q): %v", slug, err)
			continue
		}
		if s.Name() != want {
			t.Errorf("ByName(%q) = %q, want %q", slug, s.Name(), want)
		}
	}
	if _, err := ByName("hamming-armor"); err == nil {
		t.Error("unknown scheme did not error")
	}
}

func TestSlug(t *testing.T) {
	for in, want := range map[string]string{
		"Packet CRC":       "packet-crc",
		"FEC+interleaving": "fec-interleaving",
		"PPR":              "ppr",
		"  Odd  name!  ":   "odd-name",
	} {
		if got := Slug(in); got != want {
			t.Errorf("Slug(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	Register(PPR{})
}

// ---- Packet CRC ----

func TestPacketCRC(t *testing.T) {
	p := DefaultParams()
	if got := (PacketCRC{}).DeliveredAppBytes(nil, cleanOutcome(3), p, 3); got != 3 {
		t.Errorf("clean packet delivered %d, want 3", got)
	}
	if got := (PacketCRC{}).DeliveredAppBytes(nil, corrupt(cleanOutcome(3), 2), p, 3); got != 0 {
		t.Errorf("corrupt packet delivered %d, want 0", got)
	}
	unacq := cleanOutcome(3)
	unacq.Acquired = false
	if got := (PacketCRC{}).DeliveredAppBytes(nil, unacq, p, 3); got != 0 {
		t.Errorf("unacquired packet delivered %d", got)
	}
	if (PacketCRC{}).AppBytesPerPacket(p, 1500) != 1500 {
		t.Error("packet CRC capacity")
	}
}

// ---- PPR ----

func TestPPRCountsGoodCorrectOnly(t *testing.T) {
	truth := []byte{1, 2, 3, 4}
	o := &sim.Outcome{Acquired: true, TruthSyms: truth}
	// symbol 0: correct, low hint (counts)
	// symbol 1: correct, low hint (counts)
	// symbol 2: wrong, low hint (miss: delivered but wrong — not counted)
	// symbol 3: wrong, high hint (correctly dropped)
	o.Decisions = []phy.Decision{
		decision(1, 0), decision(2, 0), decision(9, 1), decision(7, 12),
	}
	p := DefaultParams()
	if got := (PPR{}).DeliveredAppBytes(nil, o, p, 2); got != 1 {
		t.Errorf("PPR delivered %d bytes, want 1 (2 good correct symbols)", got)
	}
	// A high hint on a correct symbol is a false alarm: dropped.
	o.Decisions[1] = decision(2, 10)
	if got := (PPR{}).DeliveredAppBytes(nil, o, p, 2); got != 1 {
		t.Errorf("PPR delivered %d bytes with a false alarm, want 1 (rounded nibble)", got)
	}
	if (PPR{}).AppBytesPerPacket(p, 1500) != 1500 {
		t.Error("PPR capacity")
	}
}

// TestPPROddSymbolCount is the regression test for the seed's flooring bug:
// goodCorrect*4/8 truncated every odd good-symbol count, so one delivered
// symbol scored zero bytes and three scored one. Counting in symbols and
// converting once must round the trailing nibble up.
func TestPPROddSymbolCount(t *testing.T) {
	p := DefaultParams()
	mk := func(goodCorrect, total int) *sim.Outcome {
		truth := make([]byte, total)
		o := &sim.Outcome{Acquired: true, TruthSyms: truth}
		for i := 0; i < total; i++ {
			if i < goodCorrect {
				o.Decisions = append(o.Decisions, decision(0, 0)) // correct, good hint
			} else {
				o.Decisions = append(o.Decisions, decision(1, 12)) // wrong, flagged
			}
		}
		return o
	}
	for _, tc := range []struct{ goodCorrect, want int }{
		{0, 0}, {1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {7, 4},
	} {
		if got := (PPR{}).DeliveredAppBytes(nil, mk(tc.goodCorrect, 8), p, 4); got != tc.want {
			t.Errorf("%d good symbols delivered %d bytes, want %d", tc.goodCorrect, got, tc.want)
		}
	}
}

// ---- Fragmented CRC ----

func TestFragCRC(t *testing.T) {
	// 20-byte payload, 8-byte fragments: AppCapacity(20, 8) = 12 (one full
	// 8-byte fragment plus a 4-byte tail fragment).
	payloadBytes := 20
	p := Params{FragBytes: 8, Eta: 6}
	if app := (FragCRC{}).AppBytesPerPacket(p, payloadBytes); app != 12 {
		t.Fatalf("app capacity %d, want 12", app)
	}
	if got := (FragCRC{}).DeliveredAppBytes(nil, cleanOutcome(payloadBytes), p, payloadBytes); got != 12 {
		t.Errorf("clean frag delivered %d, want 12", got)
	}
	// Corrupt payload byte 2 (symbol 4): kills fragment 0 only.
	bad := corrupt(cleanOutcome(payloadBytes), 4)
	if got := (FragCRC{}).DeliveredAppBytes(nil, bad, p, payloadBytes); got != 4 {
		t.Errorf("frag with one bad byte delivered %d, want 4", got)
	}
}

func TestFragCRCFragmentStraddlesPayloadEnd(t *testing.T) {
	// A mask shorter than the full payload (truncated reception) leaves the
	// final fragment's checksum region partly outside the mask: that
	// fragment must not be delivered, and nothing may panic.
	payloadBytes := 20
	p := Params{FragBytes: 8, Eta: 6}
	o := cleanOutcome(payloadBytes)
	// Truncate decisions and truth to 30 symbols = 15 payload bytes: the
	// tail fragment (bytes 12..19) straddles the decoded end.
	o.Decisions = o.Decisions[:30]
	o.TruthSyms = o.TruthSyms[:30]
	if got := (FragCRC{}).DeliveredAppBytes(nil, o, p, payloadBytes); got != 8 {
		t.Errorf("straddling fragment delivered %d, want 8 (first fragment only)", got)
	}
}

func TestFragCRCFragBytesAtLeastPayload(t *testing.T) {
	// FragBytes >= payload degenerates to one whole-payload fragment: the
	// checksum still costs FragOverhead, so capacity is payload-4.
	payloadBytes := 20
	for _, fragBytes := range []int{20, 30, 100} {
		p := Params{FragBytes: fragBytes, Eta: 6}
		want := payloadBytes - 4
		if app := (FragCRC{}).AppBytesPerPacket(p, payloadBytes); app != want {
			t.Fatalf("FragBytes=%d: capacity %d, want %d", fragBytes, app, want)
		}
		if got := (FragCRC{}).DeliveredAppBytes(nil, cleanOutcome(payloadBytes), p, payloadBytes); got != want {
			t.Errorf("FragBytes=%d: clean delivered %d, want %d", fragBytes, got, want)
		}
		// Any corrupt symbol kills the single fragment.
		if got := (FragCRC{}).DeliveredAppBytes(nil, corrupt(cleanOutcome(payloadBytes), 7), p, payloadBytes); got != 0 {
			t.Errorf("FragBytes=%d: corrupt delivered %d, want 0", fragBytes, got)
		}
	}
}

func TestFragCRCMaskShorterThanFragmentRegion(t *testing.T) {
	// An explicit error pattern shorter than even the first fragment's
	// region: no fragment can verify, delivery is zero, no panic.
	payloadBytes := 20
	p := Params{FragBytes: 8, Eta: 6}
	o := cleanOutcome(payloadBytes)
	short := bitutil.NewChipWords(24) // 3 clean payload bytes, first fragment needs 12
	if got := (FragCRC{}).DeliveredAppBytes(short, o, p, payloadBytes); got != 0 {
		t.Errorf("short pattern delivered %d, want 0", got)
	}
	// Zero-length pattern too.
	if got := (FragCRC{}).DeliveredAppBytes(bitutil.NewChipWords(0), o, p, payloadBytes); got != 0 {
		t.Errorf("empty pattern delivered %d, want 0", got)
	}
}

// ---- Block FEC ----

// fecTestParams keeps FEC blocks small so tests exercise several blocks in
// a small payload: 10 data bytes -> 86 branches -> 172 coded bits (43
// symbols) per block.
func fecTestParams() Params {
	return Params{Eta: 6, FECDataBytes: 10, InterleaveRows: 16, InterleaveCols: 32}
}

func TestBlockFECCapacityAndClean(t *testing.T) {
	p := fecTestParams()
	payloadBytes := 100 // 800 coded bits -> 4 blocks of 172 bits, 40 app bytes
	if got := (BlockFEC{}).AppBytesPerPacket(p, payloadBytes); got != 40 {
		t.Fatalf("FEC capacity %d, want 40", got)
	}
	if got := (BlockFEC{}).DeliveredAppBytes(nil, cleanOutcome(payloadBytes), p, payloadBytes); got != 40 {
		t.Errorf("clean FEC delivered %d, want 40", got)
	}
	// Capacity is roughly half the payload: the standing cost of coding.
	full := (BlockFEC{}).AppBytesPerPacket(DefaultParams(), 1500)
	if full <= 1500/3 || full > 1500/2 {
		t.Errorf("1500-byte FEC capacity %d outside (500, 750]", full)
	}
}

func TestBlockFECRepairsIsolatedErrorLosesBurst(t *testing.T) {
	p := fecTestParams()
	payloadBytes := 100
	// One corrupt symbol (<= 4 coded bit errors) in block 0: the K=7 code
	// repairs it and every block is delivered.
	oneErr := corrupt(cleanOutcome(payloadBytes), 10)
	if got := (BlockFEC{}).DeliveredAppBytes(nil, oneErr, p, payloadBytes); got != 40 {
		t.Errorf("single corrupt symbol delivered %d, want 40 (repaired)", got)
	}
	// A dense 10-symbol burst (40 contiguous coded bit errors) inside block
	// 0 is beyond the code: exactly that block is lost.
	burst := cleanOutcome(payloadBytes)
	idxs := make([]int, 10)
	for i := range idxs {
		idxs[i] = 5 + i
	}
	corrupt(burst, idxs...)
	if got := (BlockFEC{}).DeliveredAppBytes(nil, burst, p, payloadBytes); got != 30 {
		t.Errorf("burst delivered %d, want 30 (one block lost)", got)
	}
}

func TestInterleavingSpreadsBurst(t *testing.T) {
	// The same burst, provisioned-for by the interleaver (<= InterleaveRows
	// coded bits), spreads into isolated single errors InterleaveCols bits
	// apart that the code corrects — the a-priori-provisioning trade-off of
	// Sec. 8.3.
	p := fecTestParams() // spreads bursts up to 16 bits
	payloadBytes := 100
	burst := cleanOutcome(payloadBytes)
	corrupt(burst, 20, 21, 22, 23) // 16 contiguous coded bit errors
	plain := (BlockFEC{}).DeliveredAppBytes(nil, burst, p, payloadBytes)
	spread := (BlockFEC{Interleaved: true}).DeliveredAppBytes(nil, burst, p, payloadBytes)
	if spread <= plain {
		t.Errorf("interleaving delivered %d, not above plain FEC's %d", spread, plain)
	}
	if spread != 40 {
		t.Errorf("interleaved burst delivered %d, want 40 (fully repaired)", spread)
	}
}

func TestBlockFECUndecodedSymbolsCorrupt(t *testing.T) {
	// A missing prefix (postamble rollback) counts as corruption: the
	// blocks it covers are lost unless repaired.
	p := fecTestParams()
	payloadBytes := 100
	o := cleanOutcome(payloadBytes)
	o.MissingPrefix = 50 // first 50 symbols (200 bits) undecoded
	o.Decisions = o.Decisions[50:]
	got := (BlockFEC{}).DeliveredAppBytes(nil, o, p, payloadBytes)
	if got != 20 {
		t.Errorf("missing-prefix outcome delivered %d, want 20 (blocks 0-1 erased)", got)
	}
	// A true payload shorter than the coded layout: the 48 coded bits past
	// its 640 erase block 3, under every FEC scheme.
	short := cleanOutcome(80)
	for _, s := range []RecoveryScheme{BlockFEC{}, BlockFEC{Interleaved: true}, HybridPPRFEC{}} {
		if got := s.DeliveredAppBytes(nil, short, p, payloadBytes); got != 30 {
			t.Errorf("%s: short-truth outcome delivered %d, want 30 (block 3 erased)", s.Name(), got)
		}
	}
}

// ---- Hybrid PPR+FEC ----

func TestHybridDeliversCleanRepairsFlagged(t *testing.T) {
	p := fecTestParams()
	payloadBytes := 100
	if got := (HybridPPRFEC{}).AppBytesPerPacket(p, payloadBytes); got != 40 {
		t.Fatalf("hybrid capacity %d, want 40", got)
	}
	// Clean packet: every block hint-clean and correct, no trellis needed.
	if got := (HybridPPRFEC{}).DeliveredAppBytes(nil, cleanOutcome(payloadBytes), p, payloadBytes); got != 40 {
		t.Errorf("clean hybrid delivered %d, want 40", got)
	}
	// A flagged corrupt symbol (hint above η) routes its block through the
	// FEC repair and survives.
	flagged := cleanOutcome(payloadBytes)
	d := flagged.Decisions[10]
	d.Symbol, d.Hint = 5, 12
	flagged.Decisions[10] = d
	if got := (HybridPPRFEC{}).DeliveredAppBytes(nil, flagged, p, payloadBytes); got != 40 {
		t.Errorf("flagged-error hybrid delivered %d, want 40 (repaired)", got)
	}
}

func TestHybridMissDiffersFromBlockFEC(t *testing.T) {
	// A hint miss — wrong symbol the PHY calls good — is the one semantic
	// divergence: the hybrid's hint-clean fast path hands the block up
	// without repair and scores zero (delivered-but-wrong is not delivery),
	// while always-on BlockFEC decodes and fixes it.
	p := fecTestParams()
	payloadBytes := 100
	miss := corrupt(cleanOutcome(payloadBytes), 10) // corrupt but hint stays 0
	fecGot := (BlockFEC{}).DeliveredAppBytes(nil, miss, p, payloadBytes)
	hybGot := (HybridPPRFEC{}).DeliveredAppBytes(nil, miss, p, payloadBytes)
	if fecGot != 40 {
		t.Errorf("BlockFEC delivered %d on a single miss, want 40", fecGot)
	}
	if hybGot != 30 {
		t.Errorf("hybrid delivered %d on a single miss, want 30 (block lost)", hybGot)
	}
}

// ---- Shared-pattern contract ----

func TestSchemesHonorPrecomputedMask(t *testing.T) {
	// Every scheme must score identically with a nil pattern (computed
	// locally) and the precomputed ErrorPattern the experiments layer
	// shares. The last outcome's truth is shorter than the payload, so
	// the FEC layout reaches past its pattern.
	p := DefaultParams()
	p.FECDataBytes, p.InterleaveRows, p.InterleaveCols = 10, 16, 32
	p.FragBytes = 8
	outs := []*sim.Outcome{
		cleanOutcome(100),
		corrupt(cleanOutcome(100), 3, 40, 41, 42, 90),
		func() *sim.Outcome {
			o := cleanOutcome(100)
			o.MissingPrefix = 20
			o.Decisions = o.Decisions[20:]
			return o
		}(),
		func() *sim.Outcome {
			o := cleanOutcome(90)
			o.Decisions[7].Hint = 12
			return o
		}(),
	}
	for _, s := range All() {
		for i, o := range outs {
			pat := o.ErrorPattern()
			if a, b := s.DeliveredAppBytes(nil, o, p, 100), s.DeliveredAppBytes(pat, o, p, 100); a != b {
				t.Errorf("%s outcome %d: nil pattern %d != shared pattern %d", s.Name(), i, a, b)
			}
		}
	}
}
