package ppr

import (
	"bytes"
	"context"
	"testing"

	"ppr/internal/frame"
	"ppr/internal/stats"
)

// These tests exercise the public facade end to end, the way a downstream
// user of the library would.

func TestPublicRoundTrip(t *testing.T) {
	payload := []byte("public api round trip")
	f := NewFrame(7, 3, 1, payload)
	rx := NewReceiver(HardDecoder{})
	recs := rx.Receive(f.AirChips())
	if len(recs) != 1 || !recs[0].CRCOK {
		t.Fatalf("receptions: %+v", recs)
	}
	if !bytes.Equal(recs[0].PayloadBytes, payload) {
		t.Error("payload mismatch")
	}
}

func TestPublicLabelAndChunk(t *testing.T) {
	payload := make([]byte, 120)
	f := NewFrame(1, 2, 3, payload)
	chips := f.AirChips()
	// Destroy bytes 40..60 of the payload.
	rng := stats.NewRNG(1)
	base := (frame.SyncBytes + frame.HeaderBytes) * frame.ChipsPerByte
	chips.FillUniform(base+40*frame.ChipsPerByte, base+60*frame.ChipsPerByte, rng.Uint64)
	rx := NewReceiver(HardDecoder{})
	var rec *Reception
	for _, r := range rx.Receive(chips) {
		if r.HeaderOK {
			cp := r
			rec = &cp
		}
	}
	if rec == nil {
		t.Fatal("no header-verified reception")
	}
	labels := DefaultThreshold().LabelAll(rec.MissingPrefix, rec.Decisions)
	plan := OptimalChunks(RunsFromLabels(labels), len(labels))
	if len(plan.Chunks) == 0 {
		t.Fatal("no chunks for a corrupted packet")
	}
	// The chunk must cover the damaged symbol range [80, 120).
	c := plan.Chunks[0]
	if c.StartSym > 80 || c.EndSym < 120 {
		t.Errorf("chunk [%d,%d) does not cover damage [80,120)", c.StartSym, c.EndSym)
	}
}

// flakyLink corrupts the first transmission's tail, then goes clean.
type flakyLink struct {
	rx    *Receiver
	count int
}

func (l *flakyLink) Transmit(f Frame) *Reception {
	chips := f.AirChips()
	l.count++
	if l.count == 1 {
		rng := stats.NewRNG(9)
		chips.FillUniform(chips.Len()/3, chips.Len()/2, rng.Uint64)
	}
	recs := l.rx.Receive(chips)
	for i := range recs {
		if recs[i].HeaderOK {
			return &recs[i]
		}
	}
	return nil
}

func TestPublicARQTransfer(t *testing.T) {
	fwd := &flakyLink{rx: NewReceiver(HardDecoder{})}
	rev := &flakyLink{rx: NewReceiver(HardDecoder{}), count: 1} // reverse clean
	s := NewARQSender(fwd, rev, 1, 2, ARQConfig{})
	payload := make([]byte, 400)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	got, st, err := s.Transfer(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("ARQ transfer corrupted payload")
	}
	if st.TotalAirBytes() == 0 {
		t.Error("no air bytes accounted")
	}
}

func TestPublicAdaptiveThreshold(t *testing.T) {
	ad := NewAdaptiveThreshold(10, 1, 3)
	for i := 0; i < 1000; i++ {
		ad.Observe(0, true)
		ad.Observe(15, false)
	}
	if eta := ad.Eta(); eta < 0 || eta >= 15 {
		t.Errorf("learned eta %v", eta)
	}
}

func TestPublicTestbedAndSim(t *testing.T) {
	tb := NewTestbed(DefaultChannelParams(), 5)
	if len(tb.Senders) != 23 || len(tb.Receivers) != 4 {
		t.Fatal("wrong deployment size")
	}
	cfg := SimConfig{
		Testbed: tb, OfferedBps: 6900, PacketBytes: 150,
		DurationSec: 1.5, CarrierSense: false, Seed: 5,
	}
	txs, outs := RunSim(cfg)
	if len(txs) == 0 || len(outs) == 0 {
		t.Fatalf("sim produced %d txs, %d outcomes", len(txs), len(outs))
	}
}

func TestPublicExperimentRegistry(t *testing.T) {
	names := ExperimentNames()
	if len(names) != 17 {
		t.Fatalf("experiment registry carries %d names: %v", len(names), names)
	}
	for _, n := range names {
		e, err := ExperimentByName(n)
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() != n {
			t.Errorf("experiment %q resolves to %q", n, e.Name())
		}
	}
	if _, err := ExperimentByName("bogus"); err == nil {
		t.Error("unknown experiment name did not error")
	}
	if len(Experiments()) != len(names) {
		t.Error("presentation order and name set disagree in size")
	}

	if testing.Short() {
		return
	}
	// A small sweep through the public Runner: datasets arrive in request
	// order, named after their experiments.
	r := ExperimentRunner{Options: ExperimentOptions{Seed: 2, Quick: true}}
	ds, err := r.Run(context.Background(), []string{"fig7", "table2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 2 || ds[0].Experiment != "fig7" || ds[1].Experiment != "table2" {
		t.Fatalf("runner datasets: %+v", ds)
	}
	if len(ds[1].Series) == 0 || len(ds[1].Series[0].Points) != 5 {
		t.Error("table2 dataset shape")
	}
}

func TestPublicScenariosAndEngine(t *testing.T) {
	names := ScenarioNames()
	if len(names) < 4 {
		t.Fatalf("scenario registry too small: %v", names)
	}
	for _, n := range names {
		sc, err := ScenarioByName(n)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Name() != n {
			t.Errorf("scenario %q resolves to %q", n, sc.Name())
		}
	}
	if _, err := ScenarioByName("bogus"); err == nil {
		t.Error("unknown scenario name did not error")
	}

	// A jammer run through the public facade: sender 0 transmits bursts,
	// and results are identical across worker counts.
	tb := NewTestbed(DefaultChannelParams(), 5)
	cfg := SimConfig{
		Testbed: tb, OfferedBps: 6900, PacketBytes: 150,
		DurationSec: 1.5, CarrierSense: true, Seed: 5,
		Scenario: PeriodicJammerScenario(), Workers: 1,
	}
	txs, outs1 := RunSim(cfg)
	jams := 0
	for _, tx := range txs {
		if tx.Src == 0 {
			jams++
		}
	}
	if jams == 0 {
		t.Error("jammer scenario produced no jam bursts")
	}
	cfg.Workers = 4
	_, outs4 := RunSim(cfg)
	if len(outs1) != len(outs4) {
		t.Fatalf("worker count changed outcome count: %d vs %d", len(outs1), len(outs4))
	}
	for i := range outs1 {
		if outs1[i].TxID != outs4[i].TxID || outs1[i].Acquired != outs4[i].Acquired ||
			outs1[i].CRCOK != outs4[i].CRCOK {
			t.Fatal("worker count changed outcomes")
		}
	}
}

func TestPublicConstantsCoherent(t *testing.T) {
	if MaxPayload != 1500 {
		t.Errorf("MaxPayload %d", MaxPayload)
	}
	if DefaultEta != 6 {
		t.Errorf("DefaultEta %v", DefaultEta)
	}
	if AirBytes(0) != 34 {
		t.Errorf("AirBytes(0) = %d", AirBytes(0))
	}
	if Good == Bad {
		t.Error("labels collide")
	}
	if SyncPreamble == SyncPostamble {
		t.Error("sync kinds collide")
	}
	if SchemePacketCRC == SchemePPR {
		t.Error("schemes collide")
	}
}
