package netsim

import (
	"reflect"
	"testing"

	"ppr/internal/jam"
	"ppr/internal/radio"
	"ppr/internal/scenario"
	"ppr/internal/testbed"
)

// bed returns the standard deployment used across the tests.
func bed() *testbed.Testbed {
	return testbed.New(radio.DefaultParams(), 1)
}

// bestFlow builds the flow from sender s to its strongest receiver.
func bestFlow(tb *testbed.Testbed, s int) Flow {
	return Flow{Sender: s, Receiver: testbed.NumSenders + tb.BestReceiver(s)}
}

func baseConfig(tb *testbed.Testbed) Config {
	return Config{
		Topo:         tb,
		Flows:        []Flow{bestFlow(tb, 0)},
		PacketBytes:  250,
		DurationSec:  0.25,
		CarrierSense: true,
		Seed:         1,
	}
}

func TestSingleFlowDelivers(t *testing.T) {
	tb := bed()
	for _, layer := range LinkLayers() {
		cfg := baseConfig(tb)
		cfg.LinkLayer = layer
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", layer, err)
		}
		fr := res.Flows[0]
		if fr.Transfers == 0 {
			t.Errorf("%s: no transfers attempted", layer)
		}
		if fr.DeliveredAppBytes == 0 {
			t.Errorf("%s: nothing delivered over a strong link", layer)
		}
		if fr.Air.DataAirBytes == 0 {
			t.Errorf("%s: no data airtime accounted", layer)
		}
		if fr.Air.FeedbackAirBytes == 0 {
			t.Errorf("%s: feedback frames cost no airtime — loop is not closed", layer)
		}
		if res.BusyChips == 0 || res.TxChips < res.BusyChips {
			t.Errorf("%s: inconsistent airtime accounting busy=%d tx=%d", layer, res.BusyChips, res.TxChips)
		}
		// Delivered application throughput cannot exceed the channel bit
		// rate scaled by the payload fraction of a frame.
		if kbps := res.AggregateKbps(); kbps > 250 {
			t.Errorf("%s: aggregate %v Kbit/s exceeds the channel rate", layer, kbps)
		}
	}
}

func TestRunDeterminism(t *testing.T) {
	tb := bed()
	cfg := baseConfig(tb)
	cfg.Flows = []Flow{bestFlow(tb, 0), bestFlow(tb, 1), bestFlow(tb, 4)}
	for _, layer := range LinkLayers() {
		cfg.LinkLayer = layer
		a, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", layer, err)
		}
		b, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", layer, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: identical configs produced different results", layer)
		}
	}
}

// TestContentionCostsThroughput pins the closed-loop property the open-loop
// engine cannot express: adding a second flow on the shared channel reduces
// (or at best preserves) what the first flow alone could deliver, because
// the two complete exchanges — feedback included — contend for airtime.
func TestContentionCostsThroughput(t *testing.T) {
	tb := bed()
	solo := baseConfig(tb)
	res1, err := Run(solo)
	if err != nil {
		t.Fatal(err)
	}
	both := solo
	both.Flows = []Flow{bestFlow(tb, 0), bestFlow(tb, 9)}
	res2, err := Run(both)
	if err != nil {
		t.Fatal(err)
	}
	if got, was := res2.Flows[0].DeliveredAppBytes, res1.Flows[0].DeliveredAppBytes; got > was {
		t.Errorf("flow 0 delivered more under contention (%d) than alone (%d)", got, was)
	}
	if res2.TxChips <= res1.TxChips {
		t.Errorf("two flows put no more chips on the air than one")
	}
}

func TestTrafficPacedFlow(t *testing.T) {
	tb := bed()
	cfg := baseConfig(tb)
	cfg.Traffic = scenario.PoissonModel{}
	cfg.OfferedBps = 13800
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sat, err := Run(baseConfig(tb))
	if err != nil {
		t.Fatal(err)
	}
	if res.Flows[0].Transfers == 0 {
		t.Fatal("paced flow never sent")
	}
	if res.Flows[0].Transfers >= sat.Flows[0].Transfers {
		t.Errorf("paced flow sent %d transfers, saturated only %d", res.Flows[0].Transfers, sat.Flows[0].Transfers)
	}
}

func TestJammerDegradesDelivery(t *testing.T) {
	tb := bed()
	clean := baseConfig(tb)
	clean.LinkLayer = "packet-crc-arq"
	cleanRes, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	jammed := clean
	// A heavy periodic jammer colocated near the flow's receiver, ignoring
	// carrier sense.
	jammed.Jammers = []JammerNode{{
		Sender:     9,
		Strategy:   jam.Periodic{PeriodChips: 12_000, JitterChips: 1_000},
		BurstBytes: 120,
	}}
	jamRes, err := Run(jammed)
	if err != nil {
		t.Fatal(err)
	}
	if jamRes.JamFrames == 0 {
		t.Fatal("jammer never fired")
	}
	if jamRes.Flows[0].DeliveredAppBytes > cleanRes.Flows[0].DeliveredAppBytes {
		t.Errorf("jammed run delivered more (%d) than clean run (%d)",
			jamRes.Flows[0].DeliveredAppBytes, cleanRes.Flows[0].DeliveredAppBytes)
	}
	if jamRes.Flows[0].Air.RetxAirBytes+jamRes.Flows[0].Air.FullResends == 0 &&
		jamRes.Flows[0].DeliveredAppBytes == cleanRes.Flows[0].DeliveredAppBytes {
		t.Errorf("jammer had no observable effect on the link layer")
	}
}

func TestReactiveJammerOnlyFiresIntoTraffic(t *testing.T) {
	tb := bed()
	cfg := baseConfig(tb)
	cfg.Jammers = []JammerNode{{
		Sender:     9,
		Strategy:   jam.Reactive{PeriodChips: 12_000, JitterChips: 2_000},
		BurstBytes: scenario.ReactiveBurstBytes,
	}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Sender 9 is in a different room: whether it hears the flow depends on
	// the link budget, but it must fire at most once per poll and never on
	// an idle channel — with one saturated flow nearby, some polls land in
	// silence, so jam frames must be strictly fewer than for the periodic
	// jammer with the same clock.
	if res.JamFrames > 0 && res.Flows[0].Transfers == 0 {
		t.Error("reactive jammer fired but no traffic existed")
	}
}

func TestConfigValidation(t *testing.T) {
	tb := bed()
	f := Flow{0, testbed.NumSenders}
	bad := []Config{
		{Topo: tb},                   // no flows
		{Flows: []Flow{f}},           // no deployment
		{Topo: tb, Flows: []Flow{f}}, // no packet size/duration
		{Topo: tb, Flows: []Flow{f, {0, testbed.NumSenders + 1}}, PacketBytes: 100, DurationSec: 1}, // dup sender
		{Topo: tb, Flows: []Flow{{30, testbed.NumSenders}}, PacketBytes: 100, DurationSec: 1},       // out of range
		{Topo: tb, Flows: []Flow{f}, PacketBytes: 100, DurationSec: 1, LinkLayer: "nope"},
		{Topo: tb, Flows: []Flow{f}, PacketBytes: 100, DurationSec: 1,
			Jammers: []JammerNode{{Sender: 0, Strategy: jam.Periodic{}}}}, // jammer on flow sender
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("config %d: expected error", i)
		}
	}
}

func TestLinkLayerRegistry(t *testing.T) {
	want := []string{"pp-arq", "frag-crc-arq", "packet-crc-arq"}
	if got := LinkLayers(); !reflect.DeepEqual(got, want) {
		t.Errorf("LinkLayers() = %v, want %v", got, want)
	}
	for _, name := range LinkLayerNames() {
		if _, err := linkLayerMaker(name); err != nil {
			t.Errorf("registered layer %q does not resolve: %v", name, err)
		}
	}
	if _, err := linkLayerMaker(""); err != nil {
		t.Errorf("default layer does not resolve: %v", err)
	}
}
