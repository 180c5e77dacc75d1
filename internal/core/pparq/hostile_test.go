package pparq

import (
	"bytes"
	"errors"
	"testing"

	"ppr/internal/bitutil"
	"ppr/internal/core/feedback"
	"ppr/internal/frame"
	"ppr/internal/phy"
	"ppr/internal/stats"
)

// tamperLink is a reverse link whose far end is hostile: frames cross a
// clean chip link, then every feedback request in them is rewritten by
// tamper before the sender sees it. batched selects TransferWindow's
// concatenated framing.
type tamperLink struct {
	inner   *chipLink
	batched bool
	tamper  func(*feedback.Request)
}

func (l *tamperLink) Transmit(f frame.Frame) *frame.Reception {
	rec := l.inner.Transmit(f)
	if rec == nil || len(rec.PayloadBytes) == 0 || rec.PayloadBytes[0] != TypeFeedback {
		return rec
	}
	msgs := [][]byte{rec.PayloadBytes[1:]}
	if l.batched {
		_, msgs, _ = decodeBatch(rec.PayloadBytes)
	}
	for i, m := range msgs {
		req, err := feedback.DecodeRequest(m, feedback.DefaultChecksumBits)
		if err != nil || req.CRCVerified {
			continue
		}
		l.tamper(&req)
		// Keep the forged request encodable: one checksum per segment.
		if !req.CRCVerified {
			segs := feedback.Segments(req.NumSymbols, req.Chunks)
			req.SegChecksums = append(req.SegChecksums, make([]uint32, len(segs))...)[:len(segs)]
		}
		msgs[i] = req.Encode(feedback.DefaultChecksumBits)
	}
	if l.batched {
		rec.PayloadBytes = encodeBatch(TypeFeedback, msgs)
	} else {
		rec.PayloadBytes = append([]byte{TypeFeedback}, msgs[0]...)
	}
	return rec
}

var hostileRequests = []struct {
	name   string
	tamper func(*feedback.Request)
}{
	{"unknown seq", func(r *feedback.Request) { r.Seq += 100 }},
	{"numsymbols past packet", func(r *feedback.Request) { r.NumSymbols += 64 }},
	{"numsymbols short of packet", func(r *feedback.Request) {
		r.NumSymbols = r.Chunks[len(r.Chunks)-1].EndSym
	}},
	{"ack without checksums", func(r *feedback.Request) {
		*r = feedback.Request{Seq: r.Seq, NumSymbols: r.NumSymbols, CRCVerified: true}
	}},
}

// TestTransferRejectsHostileFeedback: a forged request must end the
// transfer with ErrBadRequest. Before the sender validated requests, the
// first two cases sliced past the stored packet and the ACK case indexed a
// missing checksum — panics in the serving goroutine.
func TestTransferRejectsHostileFeedback(t *testing.T) {
	for _, hc := range hostileRequests {
		t.Run(hc.name, func(t *testing.T) {
			rng := stats.NewRNG(40)
			fwd := &chipLink{
				rx:      frame.NewReceiver(phy.HardDecoder{}),
				corrupt: onceCorruptor(1, burstCorruptor(rng, 50, 90)),
			}
			rev := &tamperLink{inner: cleanLink(), tamper: hc.tamper}
			s := NewSender(fwd, rev, 1, 2, Config{})
			_, _, err := s.Transfer(payloadOf(rng, 250))
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("err = %v, want ErrBadRequest", err)
			}
			if len(s.sent) != 0 {
				t.Errorf("%d stale entries in sender state", len(s.sent))
			}
		})
	}
}

// TestTransferWindowRejectsHostileFeedback is the batched twin.
func TestTransferWindowRejectsHostileFeedback(t *testing.T) {
	for _, hc := range hostileRequests {
		t.Run(hc.name, func(t *testing.T) {
			rng := stats.NewRNG(41)
			fwd := &chipLink{
				rx:      frame.NewReceiver(phy.HardDecoder{}),
				corrupt: onceCorruptor(1, burstCorruptor(rng, 50, 90)),
			}
			rev := &tamperLink{inner: cleanLink(), batched: true, tamper: hc.tamper}
			s := NewSender(fwd, rev, 1, 2, Config{})
			_, _, err := s.TransferWindow([][]byte{payloadOf(rng, 250), payloadOf(rng, 120)})
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("err = %v, want ErrBadRequest", err)
			}
			if len(s.sent) != 0 {
				t.Errorf("%d stale entries in sender state", len(s.sent))
			}
		})
	}
}

// hintLink is a forward link whose radio reports hostile SoftPHY hints:
// the first reception it delivers, the data frame's, has every decision
// rewritten by tamper and its CRC verdict cleared before the receiver's
// assembler labels it. Later receptions cross unchanged.
type hintLink struct {
	inner    *chipLink
	tamper   func(*phy.Decision)
	tampered bool
}

func (l *hintLink) Transmit(f frame.Frame) *frame.Reception {
	rec := l.inner.Transmit(f)
	if rec == nil || l.tampered {
		return rec
	}
	l.tampered = true
	for i := range rec.Decisions {
		l.tamper(&rec.Decisions[i])
	}
	rec.CRCOK = false
	return rec
}

// TestTransferSurvivesHostileHints: hints at the byte's extremes, all 255
// over correct symbols and all 0 over wrong ones, must end in the sent
// payload or ErrGiveUp — never a panic or a wrong payload.
func TestTransferSurvivesHostileHints(t *testing.T) {
	for _, hc := range []struct {
		name   string
		tamper func(*phy.Decision)
	}{
		{"all 255", func(d *phy.Decision) { d.Hint = 255 }},
		{"all 0 on wrong symbols", func(d *phy.Decision) { d.Symbol, d.Hint = (d.Symbol+1)&0x0f, 0 }},
	} {
		t.Run(hc.name, func(t *testing.T) {
			rng := stats.NewRNG(42)
			fwd := &hintLink{inner: cleanLink(), tamper: hc.tamper}
			s := NewSender(fwd, cleanLink(), 1, 2, Config{})
			payload := payloadOf(rng, 250)
			got, _, err := s.Transfer(payload)
			switch {
			case err == nil && !bytes.Equal(got, payload):
				t.Fatal("delivered a payload different from the one sent")
			case err != nil && !errors.Is(err, ErrGiveUp):
				t.Fatalf("err = %v, want nil or ErrGiveUp", err)
			}
			if !fwd.tampered {
				t.Fatal("no reception was tampered with")
			}
			if len(s.sent) != 0 {
				t.Errorf("%d stale entries in sender state", len(s.sent))
			}
		})
	}
}

// TestDecodeBatchRejectsHostileLength: an entry length far beyond the body
// is refused before any buffer is sized from it.
func TestDecodeBatchRejectsHostileLength(t *testing.T) {
	var w bitutil.Writer
	w.WriteBits(TypeFeedback, 8)
	w.WriteGamma(2) // one entry
	w.WriteGamma(1 << 62)
	w.WriteBytes([]byte{1, 2, 3})
	if _, _, err := decodeBatch(w.Bytes()); err == nil {
		t.Fatal("accepted a batch entry longer than its body")
	}
}
