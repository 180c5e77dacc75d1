package linkserv

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"ppr/internal/frame"
	"ppr/internal/phy"
)

// TestParseReceptionHints pins hint validation at the wire boundary: a
// reception round-trips with finite hints, and a NaN or infinite hint is
// rejected as malformed before it can reach the sender.
func TestParseReceptionHints(t *testing.T) {
	cases := []struct {
		name    string
		hint    float64
		wantErr bool
	}{
		{"finite", 3.5, false},
		{"NaN", math.NaN(), true},
		{"+Inf", math.Inf(1), true},
		{"-Inf", math.Inf(-1), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := &frame.Reception{
				HeaderOK:     true,
				Hdr:          frame.Header{Length: 2, Dst: 1, Src: 2, Seq: 3},
				Decisions:    []phy.Decision{{Symbol: 1, Hint: 0}, {Symbol: 7, Hint: tc.hint}},
				PayloadBytes: []byte{0x71},
			}
			exch, got, err := parseReception(appendReception(nil, 9, rec))
			if tc.wantErr {
				if !errors.Is(err, errMalformed) {
					t.Fatalf("hint %v: err = %v, want errMalformed", tc.hint, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("finite hint rejected: %v", err)
			}
			if exch != 9 || !reflect.DeepEqual(got, rec) {
				t.Fatalf("round trip: exch %d, reception %+v, want %+v", exch, got, rec)
			}
		})
	}
}
