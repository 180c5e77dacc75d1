package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"ppr/internal/jam"
	"ppr/internal/radio"
	"ppr/internal/scenario"
	"ppr/internal/testbed"
)

// scheduleFingerprint reduces a schedule to its observable identity: who
// transmitted what, when.
type txFingerprint struct {
	Src     int
	Start   int64
	Dst     uint16
	Seq     uint16
	Payload string
}

func fingerprints(txs []*Transmission) []txFingerprint {
	out := make([]txFingerprint, len(txs))
	for i, tx := range txs {
		out[i] = txFingerprint{
			Src:     tx.Src,
			Start:   tx.StartChip,
			Dst:     tx.Frame.Hdr.Dst,
			Seq:     tx.Frame.Hdr.Seq,
			Payload: string(tx.Frame.Payload),
		}
	}
	return out
}

// scheduleDigest hashes a schedule's fingerprints into a golden constant.
func scheduleDigest(txs []*Transmission) string {
	h := sha256.New()
	for _, fp := range fingerprints(txs) {
		fmt.Fprintf(h, "%d %d %d %d %x\n", fp.Src, fp.Start, fp.Dst, fp.Seq, fp.Payload)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestJamStrategyParityWithLegacyJammers is the acceptance gate for the
// strategy re-expression of the legacy arrival-model jammers. The digests
// were recorded from the legacy periodic (40-byte burst every ~25 ms) and
// reactive (60-byte burst, sensing every ~6 ms) jammers while that model
// still shipped, and equalled the strategy scenarios' digests then; the
// registry-backed scenarios must keep reproducing them bit-for-bit — same
// instants, same sequence numbers, same payload bytes. Deliver depends
// only on (Testbed, Seed, txs), so schedule parity is trace parity.
func TestJamStrategyParityWithLegacyJammers(t *testing.T) {
	golden := map[string]map[uint64]string{
		"periodic-jammer": {
			1:  "092a68a49dc084bd15ea5d163b195ff507d5660a7795a07b528d4a751420a1cd",
			7:  "77bee51db66f3fb6c92b34902a827709964f8b454c5e297b42a0bf92a97eec8c",
			42: "164e7b345a0045610a2a469d907afa5e0144197af4840cd9b6bcda075fb4534d",
		},
		"reactive-jammer": {
			1:  "895d17a443253307b92aecfdd88f061ad8acee2e566982da0c4fa9baedc90573",
			7:  "d51be95e7abd0e5b9be84fddc14e3e0c36b70944e9d1755e9a6a7ea3b060d79e",
			42: "97d6c25437a49c7eb47e7c334ee0883407c456b67c5a7bf022b5e7105efc9137",
		},
	}
	for name, seeds := range golden {
		sc, err := scenario.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed, want := range seeds {
			cfg := smallCfg(6900, true, seed)
			cfg.Scenario = sc
			if got := scheduleDigest(Schedule(cfg)); got != want {
				t.Errorf("%s seed %d: schedule digest %s, golden %s", name, seed, got, want)
			}
		}
	}
}

// TestJamScenariosDeterministicAndWorkerInvariant runs every registered
// jam strategy as a scenario through the full open-loop engine twice —
// once sequentially, once on 3 workers — and requires bit-identical
// schedules and delivery traces.
func TestJamScenariosDeterministicAndWorkerInvariant(t *testing.T) {
	for _, name := range jam.Names() {
		sc, err := scenario.ByName("jam-" + name)
		if err != nil {
			t.Fatal(err)
		}
		run := func(workers int) ([]txFingerprint, []Outcome) {
			cfg := Config{
				Testbed:      testbed.New(radio.DefaultParams(), 7),
				OfferedBps:   12_000,
				PacketBytes:  200,
				DurationSec:  0.5,
				CarrierSense: true,
				Seed:         11,
				Scenario:     sc,
				Workers:      workers,
			}
			txs, outs := Run(cfg)
			return fingerprints(txs), outs
		}
		fp1, out1 := run(1)
		fp3, out3 := run(3)
		if !reflect.DeepEqual(fp1, fp3) {
			t.Fatalf("jam-%s: schedule differs across worker counts", name)
		}
		if !reflect.DeepEqual(out1, out3) {
			t.Fatalf("jam-%s: delivery trace differs across worker counts", name)
		}
		if len(fp1) == 0 {
			t.Fatalf("jam-%s: empty schedule", name)
		}
	}
}

// TestJamStrategyActuallyJams sanity-checks that strategy-driven bursts
// appear in the schedule: sender 0 transmits under every jam scenario
// whose strategy can fire against the stock Poisson victims.
func TestJamStrategyActuallyJams(t *testing.T) {
	for _, name := range []string{"periodic", "sweep", "preamble", "duty"} {
		sc, err := scenario.ByName("jam-" + name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := smallCfg(12_000, true, 5)
		cfg.Scenario = sc
		jams := 0
		for _, tx := range Schedule(cfg) {
			if tx.Src == 0 {
				jams++
			}
		}
		if jams == 0 {
			t.Errorf("jam-%s: sender 0 never jammed", name)
		}
	}
}

// TestWithJamStrategyMatchesRegistry checks that overlaying a strategy on
// Poisson traffic by hand (scenario.WithJamStrategy with the default burst)
// gives the same schedule and delivery trace as the prebuilt "jam-<name>"
// scenario, and that an unregistered jam-<name> is an error.
func TestWithJamStrategyMatchesRegistry(t *testing.T) {
	strat, err := jam.ByName("periodic")
	if err != nil {
		t.Fatal(err)
	}
	manual := scenario.WithJamStrategy("jam-periodic", scenario.Poisson(), strat, 0)
	reg, err := scenario.ByName("jam-periodic")
	if err != nil {
		t.Fatal(err)
	}
	run := func(sc scenario.Scenario) ([]*Transmission, []Outcome) {
		cfg := smallCfg(6900, true, 1)
		cfg.Testbed = testbed.New(radio.DefaultParams(), 1)
		cfg.PacketBytes = 100
		cfg.DurationSec = 0.3
		cfg.Scenario = sc
		return Run(cfg)
	}
	wantTxs, wantOuts := run(reg)
	gotTxs, gotOuts := run(manual)
	if len(wantTxs) == 0 {
		t.Fatal("empty schedule")
	}
	if !reflect.DeepEqual(wantTxs, gotTxs) || !reflect.DeepEqual(wantOuts, gotOuts) {
		t.Error("WithJamStrategy(periodic) differs from the registered jam-periodic scenario")
	}
	if _, err := scenario.ByName("jam-nonesuch"); err == nil {
		t.Error("unknown jam strategy scenario did not error")
	}
}
