package linkserv

import (
	"errors"
	"reflect"
	"testing"

	"ppr/internal/frame"
	"ppr/internal/phy"
)

// TestParseReceptionHints pins the hint byte at the wire boundary: every
// hint value round-trips exactly, up to the largest a byte carries.
func TestParseReceptionHints(t *testing.T) {
	cases := []struct {
		name string
		hint uint8
	}{
		{"finite", 3},
		{"max", 255},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := &frame.Reception{
				HeaderOK:     true,
				Hdr:          frame.Header{Length: 1, Dst: 1, Src: 2, Seq: 3},
				Decisions:    []phy.Decision{{Symbol: 1, Hint: 0}, {Symbol: 7, Hint: tc.hint}},
				PayloadBytes: []byte{0x71},
			}
			exch, got, err := parseReception(appendReception(nil, 9, rec))
			if err != nil {
				t.Fatalf("hint %d rejected: %v", tc.hint, err)
			}
			if exch != 9 || !reflect.DeepEqual(got, rec) {
				t.Fatalf("round trip: exch %d, reception %+v, want %+v", exch, got, rec)
			}
		})
	}
}

// receptionShapes are receptions at and just past the shape limits
// parseReception enforces; wantErr marks the ones it must reject.
var receptionShapes = func() []struct {
	name    string
	rec     frame.Reception
	wantErr bool
} {
	dec := func(n int) []phy.Decision { return make([]phy.Decision, n) }
	hdr := frame.Header{Length: 3, Dst: 1, Src: 2, Seq: 3}
	return []struct {
		name    string
		rec     frame.Reception
		wantErr bool
	}{
		{"whole", frame.Reception{HeaderOK: true, Hdr: hdr, Decisions: dec(6), PayloadBytes: make([]byte, 3)}, false},
		{"missing prefix fills the packet", frame.Reception{HeaderOK: true, Hdr: hdr, MissingPrefix: 2, Decisions: dec(4), PayloadBytes: make([]byte, 3)}, false},
		{"truncated tail", frame.Reception{HeaderOK: true, Hdr: hdr, Decisions: dec(1), PayloadBytes: make([]byte, 3)}, false},
		{"failed acquisition", frame.Reception{Kind: frame.SyncPostamble, SyncDist: 7}, false},
		{"decisions past the header length", frame.Reception{HeaderOK: true, Hdr: hdr, Decisions: dec(7), PayloadBytes: make([]byte, 3)}, true},
		{"missing prefix past the header length", frame.Reception{HeaderOK: true, Hdr: hdr, MissingPrefix: 3, Decisions: dec(4), PayloadBytes: make([]byte, 3)}, true},
		{"short payload", frame.Reception{HeaderOK: true, Hdr: hdr, Decisions: dec(6), PayloadBytes: make([]byte, 2)}, true},
		{"long payload", frame.Reception{HeaderOK: true, Hdr: hdr, Decisions: dec(6), PayloadBytes: make([]byte, 4)}, true},
		{"no header, decisions", frame.Reception{Decisions: dec(2)}, true},
		{"no header, payload", frame.Reception{PayloadBytes: make([]byte, 1)}, true},
	}
}()

// TestParseReceptionShape pins shape validation at the wire boundary: the
// decision and payload counts must agree with the header the reception
// claims, and a reception without a verified header carries neither.
func TestParseReceptionShape(t *testing.T) {
	for _, tc := range receptionShapes {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := parseReception(appendReception(nil, 1, &tc.rec))
			if tc.wantErr != errors.Is(err, errMalformed) || !tc.wantErr && err != nil {
				t.Fatalf("err = %v, want malformed %v", err, tc.wantErr)
			}
		})
	}
}

// TestParseReceptionCanonical: only appendReception's own encoding is
// accepted, so bytes it never writes — a presence byte other than 0 or 1,
// unknown flag bits, trailing bytes after an absent reception — are
// malformed.
func TestParseReceptionCanonical(t *testing.T) {
	whole := appendReception(nil, 1, &receptionShapes[0].rec)
	for name, body := range map[string][]byte{
		"presence 2":         append(append([]byte(nil), whole[:4]...), append([]byte{2}, whole[5:]...)...),
		"unknown flag bit":   append(append([]byte(nil), whole[:5]...), append([]byte{whole[5] | 4}, whole[6:]...)...),
		"absent, trailing":   append(appendReception(nil, 1, nil), 0),
		"present, trailing":  append(append([]byte(nil), whole...), 0),
		"present, truncated": whole[:len(whole)-1],
	} {
		if _, _, err := parseReception(body); !errors.Is(err, errMalformed) {
			t.Errorf("%s: err = %v, want errMalformed", name, err)
		}
	}
}

// TestReceiverReceptionsRoundTrip runs every reception a real receiver
// produces — a clean packet, a truncated tail, a corrupt header, and a
// postamble rollback that loses a prefix to the buffer horizon — through
// the wire encoding and back, and requires each to come out unchanged.
func TestReceiverReceptionsRoundTrip(t *testing.T) {
	payload := []byte("a reception that crosses the wire boundary intact")
	air := frame.New(4, 5, 6, payload).AirChips().Bytes()
	hdrEnd := (frame.SyncBytes + frame.HeaderBytes) * frame.ChipsPerByte
	wreckHeader := func(chips []byte) []byte {
		out := append([]byte(nil), chips...)
		for i := frame.SyncChips; i < hdrEnd; i += 3 {
			out[i] ^= 1
		}
		return out
	}
	streams := []struct {
		name        string
		chips       []byte
		bufferChips int
		want        func(frame.Reception) bool
	}{
		{"clean", air, frame.MaxAirChips, func(r frame.Reception) bool {
			return r.HeaderOK && r.CRCOK && r.MissingPrefix == 0
		}},
		{"truncated tail", air[:hdrEnd+len(payload)*frame.ChipsPerByte/2], frame.MaxAirChips, func(r frame.Reception) bool {
			return r.HeaderOK && !r.CRCOK && len(r.Decisions) < len(payload)*frame.SymbolsPerByte
		}},
		{"corrupt header", wreckHeader(air), frame.MaxAirChips, func(r frame.Reception) bool {
			return !r.HeaderOK && r.Kind == frame.SyncPreamble
		}},
		{"postamble rollback, missing prefix", wreckHeader(air), len(air) / 2, func(r frame.Reception) bool {
			return r.HeaderOK && r.Kind == frame.SyncPostamble && r.MissingPrefix > 0
		}},
	}
	for _, st := range streams {
		t.Run(st.name, func(t *testing.T) {
			rx := frame.NewReceiver(phy.HardDecoder{})
			rx.BufferChips = st.bufferChips
			recs := rx.Receive(frame.NewChipBuffer(st.chips))
			seen := false
			for i := range recs {
				rec := recs[i]
				seen = seen || st.want(rec)
				exch, got, err := parseReception(appendReception(nil, 7, &rec))
				if err != nil {
					t.Fatalf("reception %d rejected: %v\n%+v", i, err, rec)
				}
				if exch != 7 || !reflect.DeepEqual(nilIfEmpty(*got), nilIfEmpty(rec)) {
					t.Fatalf("reception %d changed on the wire:\n got %+v\nwant %+v", i, *got, rec)
				}
			}
			if !seen {
				t.Fatalf("receiver produced no %s reception: %+v", st.name, recs)
			}
		})
	}
}

// nilIfEmpty maps empty decision and payload slices to nil: the wire
// encoding carries counts, not the nil-versus-empty distinction.
func nilIfEmpty(r frame.Reception) frame.Reception {
	if len(r.Decisions) == 0 {
		r.Decisions = nil
	}
	if len(r.PayloadBytes) == 0 {
		r.PayloadBytes = nil
	}
	return r
}
