package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"ppr"
)

// quickSim runs one small simulation of sc over the shared testbed and
// returns its full transmission schedule and receive outcomes.
func quickSim(t *testing.T, sc ppr.Scenario) ([]*ppr.Transmission, []ppr.Outcome) {
	t.Helper()
	cfg := ppr.SimConfig{
		Testbed:      ppr.NewTestbed(ppr.DefaultChannelParams(), 1),
		OfferedBps:   6_900,
		PacketBytes:  100,
		DurationSec:  0.3,
		CarrierSense: true,
		Seed:         1,
		Scenario:     sc,
	}
	return ppr.RunSim(cfg, []ppr.SimVariant{{Name: "postamble", UsePostamble: true}})
}

// TestExportedStrategyPathMatchesRegistry checks the example's other API
// surface: building the overlay by hand through ppr.JamStrategyByName +
// ppr.WithJamStrategyScenario matches the prebuilt "jam-<name>" scenario.
func TestExportedStrategyPathMatchesRegistry(t *testing.T) {
	strat, err := ppr.JamStrategyByName("periodic")
	if err != nil {
		t.Fatal(err)
	}
	manual := ppr.WithJamStrategyScenario("jam-periodic", ppr.PoissonScenario(), strat, 0)
	reg, err := ppr.ScenarioByName("jam-periodic")
	if err != nil {
		t.Fatal(err)
	}
	wantTxs, wantOuts := quickSim(t, reg)
	gotTxs, gotOuts := quickSim(t, manual)
	if !reflect.DeepEqual(wantTxs, gotTxs) || !reflect.DeepEqual(wantOuts, gotOuts) {
		t.Error("WithJamStrategyScenario(periodic) differs from the registered jam-periodic scenario")
	}
}

// TestReportRuns runs the example end to end at a small operating point and
// checks the table shape: a header plus one row per scenario.
func TestReportRuns(t *testing.T) {
	r := jamReport{
		LoadKbps:    6.9,
		DurationSec: 0.3,
		PacketBytes: 100,
		Seed:        1,
		Strategies:  []string{"periodic", "reactive"},
	}
	var buf bytes.Buffer
	if err := r.run(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"scenario", "clean (poisson)", "periodic jammer", "reactive jammer", "PPR/CRC"} {
		if !strings.Contains(out, want) {
			t.Errorf("report output missing %q:\n%s", want, out)
		}
	}
	r2 := jamReport{Strategies: []string{"nonesuch"}}
	if r2.run(&buf) == nil {
		t.Error("unknown strategy name did not error")
	}
}
