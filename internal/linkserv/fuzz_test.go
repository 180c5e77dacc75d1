package linkserv

import (
	"bytes"
	"testing"

	"ppr/internal/core/pparq"
	"ppr/internal/frame"
	"ppr/internal/phy"
)

// Fuzz targets for the message-body parsers, the bytes a hostile peer
// controls past the wire codec's framing. Each parser must never panic,
// and a body it accepts must re-encode to exactly the same bytes.

func assertReencodes(t *testing.T, what string, data, enc []byte) {
	t.Helper()
	if !bytes.Equal(enc, data) {
		t.Fatalf("accepted %s re-encodes to\n% x\nfrom\n% x", what, enc, data)
	}
}

func FuzzParseAir(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendAir(nil, airMsg{Exch: 1, Dir: DirReverse, Dst: 2, Src: 3, Seq: 4}))
	f.Add(appendAir(nil, airMsg{Exch: 9, Dst: 1, Src: 2, Seq: 3, Payload: []byte("a frame")}))
	f.Add(appendAir(nil, airMsg{Payload: make([]byte, frame.MaxPayload)}))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseAir(data)
		if err != nil {
			return
		}
		assertReencodes(t, "air", data, appendAir(nil, m))
	})
}

func FuzzParseReception(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendReception(nil, 3, nil))
	for _, tc := range receptionShapes {
		f.Add(appendReception(nil, 1, &tc.rec))
	}
	for _, hint := range []uint8{3, 64, 255} {
		f.Add(appendReception(nil, 9, &frame.Reception{
			HeaderOK:     true,
			Hdr:          frame.Header{Length: 1, Dst: 1, Src: 2, Seq: 3},
			Decisions:    []phy.Decision{{Symbol: 1, Hint: 0}, {Symbol: 7, Hint: hint}},
			PayloadBytes: []byte{0x71},
		}))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		exch, rec, err := parseReception(data)
		if err != nil {
			return
		}
		if rec != nil {
			if rec.MissingPrefix < 0 || len(rec.PayloadBytes) > frame.MaxPayload {
				t.Fatalf("accepted missing prefix %d, payload %d", rec.MissingPrefix, len(rec.PayloadBytes))
			}
		}
		assertReencodes(t, "reception", data, appendReception(nil, exch, rec))
	})
}

func FuzzParseDone(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendDone(nil, doneMsg{Xid: 1, Status: StatusGiveUp, Err: "pparq: gave up"}))
	f.Add(appendDone(nil, doneMsg{Xid: 2, Status: StatusOK, Delivered: []byte("payload"),
		Stats: pparq.Stats{DataAirBytes: 300, RetxAirBytes: 40, FeedbackAirBytes: 30,
			Rounds: 2, Misses: 1, VerifiedSymbols: 14, RetxPayloadSizes: []int{12, 7}}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseDone(data)
		if err != nil {
			return
		}
		assertReencodes(t, "done", data, appendDone(nil, m))
	})
}

func FuzzParseTransfer(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1})
	f.Add(append([]byte{0, 0, 0, 1}, testPayload(100, 2)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		xid, payload, err := parseTransfer(data)
		if err != nil {
			return
		}
		assertReencodes(t, "transfer", data, append(binaryU32(nil, xid), payload...))
	})
}

func FuzzParseOpenErr(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendOpenErr(nil, CodeBusy, "flow limit reached"))
	f.Add(appendOpenErr(nil, CodeDraining, "server draining"))
	f.Fuzz(func(t *testing.T, data []byte) {
		code, msg, err := parseOpenErr(data)
		if err != nil {
			return
		}
		assertReencodes(t, "open error", data, appendOpenErr(nil, code, msg))
	})
}
