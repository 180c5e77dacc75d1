package fec_test

// Integration tests for the paper's PHY-independence claim (Sec. 3.3 and
// the future-work list): the PP-ARQ receiver stack — labelling, run-length
// representation, chunking, feedback, and assembly — runs unchanged over a
// convolutionally-coded PHY whose hints are Viterbi reliabilities instead
// of Hamming distances. Nothing above the Decision stream knows which PHY
// produced it.

import (
	"bytes"
	"testing"

	"ppr/internal/core/feedback"
	"ppr/internal/core/recovery"
	"ppr/internal/core/softphy"
	"ppr/internal/fec"
	"ppr/internal/stats"
)

// codedEta is a threshold calibrated for the coded PHY's hint scale
// (hints live in [0, 16]; clean bits sit near 0). In a deployment the
// Adaptive labeler would learn this — tested below.
const codedEta = 8

func transmitCoded(rng *stats.RNG, payload []byte, channelBER float64) []byte {
	coded := fec.Encode(fec.BitsFromBytes(payload))
	for i := range coded {
		if rng.Bool(channelBER) {
			coded[i] ^= 1
		}
	}
	return coded
}

func TestPPARQRecoveryOverCodedPHY(t *testing.T) {
	rng := stats.NewRNG(1)
	recovered := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		payload := make([]byte, 80)
		for i := range payload {
			payload[i] = byte(rng.Intn(256))
		}
		// A noisy channel with a heavy burst: the decoder will fail inside
		// the burst and the reliabilities must flag the failure.
		coded := fec.Encode(fec.BitsFromBytes(payload))
		lo := len(coded) / 3
		for i := lo; i < lo+len(coded)/5; i++ {
			if rng.Bool(0.25) {
				coded[i] ^= 1
			}
		}
		res, err := fec.Decode(coded)
		if err != nil {
			t.Fatal(err)
		}
		ds := fec.DecisionsFromResult(res)

		// The generic PP-ARQ receiver stack, PHY-agnostic from here on.
		asm := recovery.New(len(ds))
		if err := asm.Init(0, ds, softphy.Threshold{Eta: codedEta}); err != nil {
			t.Fatal(err)
		}
		req := asm.BuildRequest(uint16(trial), feedback.DefaultChecksumBits)
		if req.CRCVerified {
			// Decode happened to be perfect; fine.
			recovered++
			continue
		}
		// "Sender" answers from the true symbols.
		truth := make([]byte, 0, len(payload)*2)
		for _, b := range payload {
			truth = append(truth, b&0x0f, b>>4)
		}
		resp := feedback.Response{Seq: req.Seq, NumSymbols: len(ds)}
		for _, c := range req.Chunks {
			resp.Chunks = append(resp.Chunks, feedback.RespChunk{
				Start: c.StartSym, Syms: truth[c.StartSym:c.EndSym],
			})
		}
		for _, s := range feedback.Segments(len(ds), req.Chunks) {
			w := feedback.ChecksumWidth(s.Len, feedback.DefaultChecksumBits)
			resp.SegChecksums = append(resp.SegChecksums, feedback.SymbolChecksum(truth[s.Start:s.End()], w))
		}
		failed, err := asm.ApplyResponse(resp, feedback.DefaultChecksumBits)
		if err != nil {
			t.Fatal(err)
		}
		// One more round sweeps any failed segments (misses).
		for round := 0; failed > 0 && round < 3; round++ {
			req = asm.BuildRequest(uint16(trial), feedback.DefaultChecksumBits)
			resp = feedback.Response{Seq: req.Seq, NumSymbols: len(ds)}
			for _, c := range req.Chunks {
				resp.Chunks = append(resp.Chunks, feedback.RespChunk{
					Start: c.StartSym, Syms: truth[c.StartSym:c.EndSym],
				})
			}
			for _, s := range feedback.Segments(len(ds), req.Chunks) {
				w := feedback.ChecksumWidth(s.Len, feedback.DefaultChecksumBits)
				resp.SegChecksums = append(resp.SegChecksums, feedback.SymbolChecksum(truth[s.Start:s.End()], w))
			}
			failed, err = asm.ApplyResponse(resp, feedback.DefaultChecksumBits)
			if err != nil {
				t.Fatal(err)
			}
		}
		if !asm.Complete() {
			t.Fatalf("trial %d: not complete after recovery rounds", trial)
		}
		if !bytes.Equal(asm.Payload(), payload) {
			t.Fatalf("trial %d: payload mismatch after recovery", trial)
		}
		recovered++
	}
	if recovered != trials {
		t.Errorf("recovered %d of %d coded-PHY transfers", recovered, trials)
	}
}

func TestAdaptiveLearnsCodedScale(t *testing.T) {
	// The adaptive labeler must find a usable threshold for the coded
	// PHY's hint scale without being told anything about it.
	rng := stats.NewRNG(2)
	ad := softphy.NewAdaptive(10, 1, 0)
	for trial := 0; trial < 30; trial++ {
		payload := make([]byte, 60)
		for i := range payload {
			payload[i] = byte(rng.Intn(256))
		}
		coded := transmitCoded(rng, payload, 0.05)
		res, err := fec.Decode(coded)
		if err != nil {
			t.Fatal(err)
		}
		ds := fec.DecisionsFromResult(res)
		truth := make([]byte, 0, len(payload)*2)
		for _, b := range payload {
			truth = append(truth, b&0x0f, b>>4)
		}
		for i, d := range ds {
			ad.Observe(float64(d.Hint), d.Symbol == truth[i])
		}
	}
	eta := ad.Eta()
	if eta < 0 || eta >= 16 {
		t.Errorf("learned eta %v outside the coded hint range", eta)
	}
	if mr := ad.MissRate(eta); mr > 0.5 {
		t.Errorf("adaptive threshold misses %.2f of errors", mr)
	}
	t.Logf("coded PHY: learned eta = %v (miss %.3f, false alarm %.4f)",
		eta, ad.MissRate(eta), ad.FalseAlarmRate(eta))
}
