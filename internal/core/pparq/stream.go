package pparq

import (
	"fmt"

	"ppr/internal/bitutil"
	"ppr/internal/core/feedback"
	"ppr/internal/core/recovery"
	"ppr/internal/frame"
)

// This file implements the streaming side of Sec. 5.2: "this process
// continues, with multiple forward-link data packets and reverse-link
// feedback packets being concatenated together in each transmission, to
// save per-packet overhead." TransferWindow moves a window of payloads and
// aggregates the per-packet feedback requests into a single reverse-link
// frame per round, and all partial retransmissions into a single
// forward-link frame per round — amortising the preamble, header, trailer
// and postamble of every control packet across the window.

// encodeBatch concatenates length-prefixed messages into one control body.
func encodeBatch(typ byte, msgs [][]byte) []byte {
	var w bitutil.Writer
	w.WriteBits(uint64(typ), 8)
	w.WriteGamma(uint64(len(msgs)) + 1)
	for _, m := range msgs {
		w.WriteGamma(uint64(len(m)) + 1)
		w.WriteBytes(m)
	}
	return w.Bytes()
}

// decodeBatch reverses encodeBatch.
func decodeBatch(body []byte) (typ byte, msgs [][]byte, err error) {
	rd := bitutil.NewReader(body)
	typ = byte(rd.ReadBits(8))
	n := rd.ReadGamma()
	if rd.Err() != nil || n == 0 {
		return 0, nil, fmt.Errorf("pparq: malformed batch header")
	}
	for i := uint64(0); i < n-1; i++ {
		l := rd.ReadGamma()
		if rd.Err() != nil || l == 0 {
			return 0, nil, fmt.Errorf("pparq: malformed batch entry %d", i)
		}
		if l-1 > uint64(rd.Remaining()/8) {
			// Checked before ReadBytes allocates: a hostile length
			// must not size a buffer the body cannot fill.
			return 0, nil, fmt.Errorf("pparq: truncated batch entry %d", i)
		}
		m := rd.ReadBytes(int(l - 1))
		if rd.Err() != nil {
			return 0, nil, fmt.Errorf("pparq: truncated batch entry %d", i)
		}
		msgs = append(msgs, m)
	}
	return typ, msgs, nil
}

// windowEntry tracks one in-flight packet of a streaming window.
type windowEntry struct {
	seq     uint16
	payload []byte
	asm     *recovery.Assembler
	done    bool
}

// TransferWindow delivers a window of payloads with PP-ARQ recovery,
// concatenating all reverse-link feedback into one frame per round and all
// partial retransmissions into one frame per round. It returns the
// delivered payloads (in order) and the aggregate byte accounting; the
// amortisation makes its TotalAirBytes beat len(payloads) independent
// Transfer calls whenever more than one packet needs recovery.
func (s *Sender) TransferWindow(payloads [][]byte) ([][]byte, Stats, error) {
	cfg := s.cfg
	var st Stats
	entries := make([]*windowEntry, len(payloads))

	// Phase 1: stream every data frame out back-to-back.
	for i, payload := range payloads {
		seq := s.seq
		s.seq++
		syms := bitutil.NibblesFromBytes(payload)
		s.sent[seq] = syms
		e := &windowEntry{seq: seq, payload: payload, asm: recovery.New(len(syms))}
		entries[i] = e

		f := frame.New(s.dst, s.src, seq, payload)
		air := frame.AirBytes(len(payload))
		var rec *frame.Reception
		for attempt := 0; attempt < cfg.MaxAttempts; attempt++ {
			st.DataAirBytes += air
			rec = s.fwd.Transmit(f)
			if rec != nil && rec.HeaderOK {
				break
			}
			rec = nil
			st.FullResends++
		}
		if rec == nil {
			s.releaseWindow(entries)
			return nil, st, fmt.Errorf("%w: data frame %d never acquired", ErrGiveUp, i)
		}
		if err := e.asm.Init(rec.MissingPrefix, rec.Decisions, cfg.Labeler); err != nil {
			s.releaseWindow(entries)
			return nil, st, err
		}
		if rec.CRCOK {
			e.asm.MarkAllVerified()
			e.done = true
		}
	}

	// Recovery rounds over the whole window with concatenated control
	// frames.
	for round := 0; round < cfg.MaxRounds; round++ {
		st.Rounds = round + 1
		var reqBodies [][]byte
		var open []*windowEntry
		for _, e := range entries {
			if e.done {
				continue
			}
			req := e.asm.BuildRequest(e.seq, cfg.LambdaC)
			reqBodies = append(reqBodies, req.Encode(cfg.LambdaC))
			open = append(open, e)
		}
		// One concatenated feedback frame acknowledges the whole window
		// (empty batch = all verified).
		fbBody := encodeBatch(TypeFeedback, reqBodies)
		fbRec, err := s.sendControl(s.rev, fbBody, &st.FeedbackAirBytes, nil)
		if err != nil {
			s.releaseWindow(entries)
			return nil, st, err
		}
		if len(open) == 0 {
			break
		}
		_, reqMsgs, err := decodeBatch(fbRec.PayloadBytes)
		if err != nil {
			s.releaseWindow(entries)
			return nil, st, err
		}
		// Sender builds one concatenated response for every open packet.
		var respBodies [][]byte
		for _, m := range reqMsgs {
			req, err := feedback.DecodeRequest(m, cfg.LambdaC)
			if err != nil {
				s.releaseWindow(entries)
				return nil, st, fmt.Errorf("pparq: bad batched request: %w", err)
			}
			resp, misses, err := s.buildResponse(req)
			if err != nil {
				s.releaseWindow(entries)
				return nil, st, err
			}
			st.Misses += misses
			respBodies = append(respBodies, resp.Encode(cfg.LambdaC))
		}
		respBody := encodeBatch(TypeResponse, respBodies)
		respRec, err := s.sendControl(s.fwd, respBody, &st.RetxAirBytes, &st.RetxPayloadSizes)
		if err != nil {
			s.releaseWindow(entries)
			return nil, st, err
		}
		_, respMsgs, err := decodeBatch(respRec.PayloadBytes)
		if err != nil {
			s.releaseWindow(entries)
			return nil, st, err
		}
		if len(respMsgs) != len(open) {
			s.releaseWindow(entries)
			return nil, st, fmt.Errorf("pparq: %d batched responses for %d open packets", len(respMsgs), len(open))
		}
		for i, e := range open {
			resp, err := feedback.DecodeResponse(respMsgs[i], cfg.LambdaC)
			if err != nil {
				s.releaseWindow(entries)
				return nil, st, err
			}
			if _, err := e.asm.ApplyResponse(resp, cfg.LambdaC); err != nil {
				s.releaseWindow(entries)
				return nil, st, err
			}
			if e.asm.Complete() {
				e.done = true
			}
		}
	}

	out := make([][]byte, len(entries))
	for i, e := range entries {
		if !e.done {
			s.releaseWindow(entries)
			return nil, st, fmt.Errorf("%w: packet %d unverified after %d rounds", ErrGiveUp, i, st.Rounds)
		}
		out[i] = e.asm.Payload()
	}
	s.releaseWindow(entries)
	return out, st, nil
}

// releaseWindow drops the window's retransmission state.
func (s *Sender) releaseWindow(entries []*windowEntry) {
	for _, e := range entries {
		if e != nil {
			delete(s.sent, e.seq)
		}
	}
}
