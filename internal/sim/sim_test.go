package sim

import (
	"testing"

	"ppr/internal/frame"
	"ppr/internal/radio"
	"ppr/internal/stats"
	"ppr/internal/testbed"
)

func smallCfg(offered float64, cs bool, seed uint64) Config {
	return Config{
		Testbed:      testbed.New(radio.DefaultParams(), 7),
		OfferedBps:   offered,
		PacketBytes:  200, // small packets keep the test fast
		DurationSec:  3,
		CarrierSense: cs,
		Seed:         seed,
	}
}

func TestScheduleProducesTraffic(t *testing.T) {
	cfg := smallCfg(6900, false, 1)
	txs := Schedule(cfg)
	if len(txs) == 0 {
		t.Fatal("no transmissions scheduled")
	}
	// Offered load 6.9 Kbit/s/node × 23 nodes over 3 s at 200-byte packets:
	// ~ 6900*23*3/1600 ≈ 300 packets. Allow wide Poisson slack.
	if len(txs) < 150 || len(txs) > 500 {
		t.Errorf("scheduled %d transmissions, expected ~300", len(txs))
	}
	prev := int64(-1)
	for _, tx := range txs {
		if tx.StartChip < prev {
			t.Fatal("transmissions not time-ordered")
		}
		prev = tx.StartChip
		if len(tx.TruthSyms) != 400 {
			t.Fatalf("truth symbols %d, want 400", len(tx.TruthSyms))
		}
	}
}

func TestScheduleDeterministic(t *testing.T) {
	a := Schedule(smallCfg(3500, true, 9))
	b := Schedule(smallCfg(3500, true, 9))
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i].StartChip != b[i].StartChip || a[i].Src != b[i].Src {
			t.Fatal("schedules differ under same seed")
		}
	}
}

func TestCarrierSenseReducesOverlap(t *testing.T) {
	// Count chip-overlap between transmission pairs with CS on vs off at a
	// load high enough to matter.
	overlap := func(cs bool) int64 {
		txs := Schedule(smallCfg(13800, cs, 11))
		var total int64
		for i := 0; i < len(txs); i++ {
			for k := i + 1; k < len(txs); k++ {
				if txs[k].StartChip >= txs[i].EndChip() {
					break
				}
				end := txs[i].EndChip()
				if txs[k].EndChip() < end {
					end = txs[k].EndChip()
				}
				total += end - txs[k].StartChip
			}
		}
		return total
	}
	on, off := overlap(true), overlap(false)
	if on >= off {
		t.Errorf("carrier sense did not reduce overlap: on=%d off=%d", on, off)
	}
	t.Logf("overlap chips: CS on %d, CS off %d", on, off)
}

func TestDeliverCleanSingleLink(t *testing.T) {
	// One sender very close to one receiver, low load: everything should be
	// acquired and decode perfectly.
	cfg := smallCfg(3500, true, 13)
	txs, outs := Run(cfg)
	if len(outs) == 0 {
		t.Fatal("no outcomes")
	}
	// Find strong-link outcomes (SNR > 20 dB) and verify they decode.
	tb := cfg.Testbed
	strongOK, strongTotal := 0, 0
	for _, o := range outs {
		if o.Variant != VariantPostamble {
			continue
		}
		snr := tb.GainDBm[o.Src][o.Receiver] - tb.Params.NoiseFloorDBm
		if snr < 25 {
			continue
		}
		strongTotal++
		if o.Acquired && o.CRCOK {
			strongOK++
		}
	}
	if strongTotal == 0 {
		t.Skip("no strong links in this deployment seed")
	}
	frac := float64(strongOK) / float64(strongTotal)
	if frac < 0.85 {
		t.Errorf("strong links delivered only %.2f at moderate load with CS", frac)
	}
	_ = txs
}

func TestDeliverPostambleNeverWorse(t *testing.T) {
	cfg := smallCfg(13800, false, 17)
	_, outs := Run(cfg)
	acq := map[int]map[int]int{VariantNoPostamble: {}, VariantPostamble: {}} // variant → txid*8+receiver → acquired
	for _, o := range outs {
		if o.Acquired {
			acq[o.Variant][o.TxID*8+o.Receiver] = 1
		}
	}
	// Postamble acquisition is a superset in expectation; allow tiny losses
	// from dedup edge cases but require a clear net win at high load.
	gain := len(acq[VariantPostamble]) - len(acq[VariantNoPostamble])
	if gain <= 0 {
		t.Errorf("postamble decoding acquired %d vs %d without; expected more",
			len(acq[VariantPostamble]), len(acq[VariantNoPostamble]))
	}
	t.Logf("acquisitions: no-postamble %d, postamble %d", len(acq[VariantNoPostamble]), len(acq[VariantPostamble]))
}

func TestOutcomeCorrectnessAgainstTruth(t *testing.T) {
	cfg := smallCfg(6900, false, 19)
	_, outs := Run(cfg)
	sawCorrect, sawIncorrect := false, false
	for _, o := range outs {
		if !o.Acquired {
			continue
		}
		mask := o.CorrectMask()
		if len(mask) != len(o.TruthSyms) {
			t.Fatal("mask length mismatch")
		}
		nCorrect := 0
		for _, ok := range mask {
			if ok {
				nCorrect++
			}
		}
		if nCorrect > 0 {
			sawCorrect = true
		}
		if nCorrect < len(mask) {
			sawIncorrect = true
		}
		// CRC-verified receptions must be entirely correct.
		if o.CRCOK && nCorrect != len(mask) {
			t.Fatal("CRC-verified packet has incorrect symbols")
		}
	}
	if !sawCorrect || !sawIncorrect {
		t.Errorf("trace lacks variety: correct=%v incorrect=%v", sawCorrect, sawIncorrect)
	}
}

func TestHintsSeparateCorrectFromIncorrect(t *testing.T) {
	// The Fig. 3 property, end to end through the simulator: correct
	// symbols carry low hints, incorrect ones high hints.
	cfg := smallCfg(13800, false, 23)
	_, outs := Run(cfg)
	var correctHints, incorrectHints []float64
	for _, o := range outs {
		if !o.Acquired || o.Variant != VariantPostamble {
			continue
		}
		for i, d := range o.Decisions {
			idx := o.MissingPrefix + i
			if idx >= len(o.TruthSyms) {
				break
			}
			if d.Symbol == o.TruthSyms[idx] {
				correctHints = append(correctHints, d.Hint)
			} else {
				incorrectHints = append(incorrectHints, d.Hint)
			}
		}
	}
	if len(correctHints) < 100 || len(incorrectHints) < 20 {
		t.Skipf("insufficient data: %d correct, %d incorrect", len(correctHints), len(incorrectHints))
	}
	mc, mi := stats.Mean(correctHints), stats.Mean(incorrectHints)
	if mc >= mi {
		t.Errorf("mean hint of correct symbols %v not below incorrect %v", mc, mi)
	}
	// Sec. 3.2: 96% of correct codewords at distance ≤ 1; we require a
	// strong majority.
	low := 0
	for _, h := range correctHints {
		if h <= 1 {
			low++
		}
	}
	if frac := float64(low) / float64(len(correctHints)); frac < 0.80 {
		t.Errorf("only %.2f of correct symbols have hint <= 1", frac)
	}
	t.Logf("hints: correct mean %.2f (n=%d), incorrect mean %.2f (n=%d)",
		mc, len(correctHints), mi, len(incorrectHints))
}

func TestPostambleOutcomesHaveKind(t *testing.T) {
	cfg := smallCfg(13800, false, 29)
	_, outs := Run(cfg)
	post := 0
	for _, o := range outs {
		if o.Acquired && o.Variant == VariantPostamble && o.Kind == frame.SyncPostamble {
			post++
		}
	}
	if post == 0 {
		t.Error("no postamble-acquired packets at high load without carrier sense")
	}
	t.Logf("postamble acquisitions: %d", post)
}
