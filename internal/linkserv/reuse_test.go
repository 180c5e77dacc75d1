package linkserv

import (
	"bytes"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"ppr/internal/frame"
	"ppr/internal/leakcheck"
	"ppr/internal/obs"
	"ppr/internal/phy"
	"ppr/internal/stats"
	"ppr/internal/wire"
)

// rawPeer is the server end of a pipe driven by hand: the test reads the
// client's frames and writes the answers.
type rawPeer struct {
	dec *wire.Decoder
	enc *wire.Encoder
}

func newRawClient(t *testing.T, cfg ClientConfig) (*Client, *rawPeer) {
	t.Helper()
	sc, cc := net.Pipe()
	cl := NewClient(cc, cfg)
	t.Cleanup(func() {
		cl.Close()
		sc.Close()
	})
	return cl, &rawPeer{dec: wire.NewDecoder(sc), enc: wire.NewEncoder(sc)}
}

func (p *rawPeer) next(t *testing.T) wire.Frame {
	t.Helper()
	f, err := p.dec.Next()
	if err != nil {
		t.Fatalf("peer read: %v", err)
	}
	return f
}

// scribble is an Impair that overwrites a stretch of every frame's chips
// with noise keyed on the frame's length, so a frame's reception depends
// on its own chips only.
func scribble(dir byte, flow uint32, chips *frame.ChipBuffer) {
	rng := stats.NewRNG(uint64(chips.Len()))
	start := chips.Len() / 3
	chips.FillUniform(start, min(start+40*frame.ChipsPerByte, chips.Len()), rng.Uint64)
}

// radioHeadRx runs each air message through flow 1 of cl's radio head and
// returns the MsgRx bodies it answers with.
func radioHeadRx(t *testing.T, cl *Client, p *rawPeer, airs [][]byte) [][]byte {
	t.Helper()
	f := &Flow{c: cl, id: 1, inbox: make(chan inMsg, flowInbox)}
	var out [][]byte
	for _, air := range airs {
		f.handleAir(air)
		rx := p.next(t)
		if rx.Type != MsgRx || rx.Flow != 1 {
			t.Fatalf("radio head answered type %d flow %d", rx.Type, rx.Flow)
		}
		out = append(out, rx.Payload)
	}
	return out
}

// TestRadioHeadReusesBuffers sends full-size and small frames, alternating,
// through one client's pooled radio head, with an Impair that scribbles on
// the chips in place. Each reception must equal the one a fresh client
// returns for the same frame alone: the spread rewrites every pooled chip
// word, so no frame sees another's chips or scribbles.
func TestRadioHeadReusesBuffers(t *testing.T) {
	leakcheck.CheckCleanup(t)
	var airs [][]byte
	for i, n := range []int{frame.MaxPayload, 256, frame.MaxPayload, 256, 40} {
		airs = append(airs, appendAir(nil, airMsg{Exch: uint32(i), Dir: byte(i & 1),
			Dst: 2, Src: 1, Seq: uint16(i), Payload: testPayload(n, byte(i))}))
	}
	cl, p := newRawClient(t, ClientConfig{Impair: scribble})
	got := radioHeadRx(t, cl, p, airs)
	for i, air := range airs {
		fresh, fp := newRawClient(t, ClientConfig{Impair: scribble})
		want := radioHeadRx(t, fresh, fp, [][]byte{air})[0]
		if !bytes.Equal(got[i], want) {
			t.Fatalf("frame %d: reused radio head's MsgRx differs from a fresh client's", i)
		}
		_, rec, err := parseReception(want)
		if err != nil || rec == nil || !rec.HeaderOK || rec.CRCOK {
			t.Fatalf("frame %d: want a header-verified, CRC-failed reception, got %+v (err %v)", i, rec, err)
		}
	}
}

// TestFlowTimerReuse runs a flow's one timer through each of its waits: an
// open that times out, an open and a transfer answered well inside the
// deadline, and a close that is never answered. An expiry left over from
// an earlier wait would end a later one early (the client would retry,
// counting a timeout), and a timer that is not re-armed would never end
// the close.
func TestFlowTimerReuse(t *testing.T) {
	leakcheck.CheckCleanup(t)
	reg := obs.New()
	const timeout = 300 * time.Millisecond
	cl, p := newRawClient(t, ClientConfig{OpenTimeout: timeout, RespTimeout: timeout, Metrics: reg})
	timeouts := reg.Counter("linkserv.client.timeouts")
	opened := make(chan error, 1)
	var f *Flow
	go func() {
		var err error
		f, err = cl.Open()
		opened <- err
	}()
	first := p.next(t) // unanswered: this wait times out
	second := p.next(t)
	if first.Type != MsgOpen || second.Type != MsgOpen || second.Flow != first.Flow {
		t.Fatalf("want two opens of one flow, got types %d, %d", first.Type, second.Type)
	}
	time.Sleep(timeout / 6)
	if err := p.enc.Encode(wire.Frame{Type: MsgOpenOK, Flow: second.Flow}); err != nil {
		t.Fatal(err)
	}
	if err := <-opened; err != nil {
		t.Fatalf("open: %v", err)
	}

	payload := testPayload(64, 1)
	type result struct {
		got []byte
		err error
	}
	xfer := make(chan result, 1)
	go func() {
		got, _, err := f.Transfer(payload)
		xfer <- result{got, err}
	}()
	req := p.next(t)
	xid, _, err := parseTransfer(req.Payload)
	if req.Type != MsgTransfer || err != nil {
		t.Fatalf("want a transfer request, got type %d (err %v)", req.Type, err)
	}
	time.Sleep(timeout / 6)
	done := appendDone(nil, doneMsg{Xid: xid, Status: StatusOK, Delivered: payload})
	if err := p.enc.Encode(wire.Frame{Type: MsgDone, Flow: req.Flow, Payload: done}); err != nil {
		t.Fatal(err)
	}
	if r := <-xfer; r.err != nil || !bytes.Equal(r.got, payload) {
		t.Fatalf("transfer: err %v, payload intact %v", r.err, bytes.Equal(r.got, payload))
	}
	if n := timeouts.Value(); n != 1 {
		t.Fatalf("client timeouts = %d, want exactly the first open's", n)
	}

	closed := make(chan error, 1)
	start := time.Now()
	go func() { closed <- f.Close() }()
	if m := p.next(t); m.Type != MsgClose {
		t.Fatalf("want a close, got type %d", m.Type)
	}
	select {
	case err := <-closed:
		if !errors.Is(err, ErrTimeout) || time.Since(start) < timeout {
			t.Fatalf("unanswered close: err %v after %v, want ErrTimeout after %v", err, time.Since(start), timeout)
		}
	case <-time.After(20 * timeout):
		t.Fatal("unanswered close never timed out")
	}
}

// TestExchangeTimerReuse drives a session's one exchange timer through an
// exchange that times out, one answered after a delay well inside the
// deadline, and — in a second transfer — another that times out. The
// radio head holds each doomed frame until the server has counted its
// timeout, so the timeouts are exact: a stale expiry would add one, and a
// timer that no longer fires would hang the second transfer.
func TestExchangeTimerReuse(t *testing.T) {
	leakcheck.CheckCleanup(t)
	reg := obs.New()
	const timeout = 400 * time.Millisecond
	exchTimeouts := reg.Counter("linkserv.exch_timeouts")
	var holdUntil atomic.Int64 // hold the next frame until this many timeouts
	var slowNext atomic.Bool
	impair := func(dir byte, flow uint32, chips *frame.ChipBuffer) {
		if n := holdUntil.Swap(0); n > 0 {
			// Bounded, so a timer that never fires fails the count below
			// instead of hanging the test.
			for end := time.Now().Add(20 * timeout); exchTimeouts.Value() < n && time.Now().Before(end); {
				time.Sleep(5 * time.Millisecond)
			}
			slowNext.Store(true)
			return
		}
		if slowNext.Swap(false) {
			time.Sleep(timeout / 8)
		}
	}
	_, cl := newPair(t, Config{Metrics: reg, ExchangeTimeout: timeout}, ClientConfig{Impair: impair})
	f, err := cl.Open()
	if err != nil {
		t.Fatal(err)
	}
	for i, hold := range []int64{1, 2} {
		holdUntil.Store(hold)
		payload := testPayload(200, byte(i))
		got, _, err := f.Transfer(payload)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("transfer %d: err %v, payload intact %v", i, err, bytes.Equal(got, payload))
		}
		if n := exchTimeouts.Value(); n != hold {
			t.Fatalf("after transfer %d: %d exchange timeouts, want %d", i, n, hold)
		}
	}
}

// TestParseReceptionRejectsSymbolBytes: a body laid out with a symbol byte
// beside each hint — two bytes per decision — is malformed whenever it has
// a decision, by the exact-length rule alone.
func TestParseReceptionRejectsSymbolBytes(t *testing.T) {
	for _, tc := range receptionShapes {
		if tc.wantErr {
			continue
		}
		rec := tc.rec
		body := appendReception(nil, 1, &rec)
		if _, _, err := parseReception(body); err != nil {
			t.Fatalf("%s: hint-only body rejected: %v", tc.name, err)
		}
		hints := receptionFixedLen - 4 // the hints start after nDec
		twoByte := append([]byte(nil), body[:hints]...)
		for _, d := range rec.Decisions {
			twoByte = append(twoByte, d.Symbol, d.Hint)
		}
		twoByte = append(twoByte, body[hints+len(rec.Decisions):]...)
		_, _, err := parseReception(twoByte)
		if len(rec.Decisions) == 0 {
			if err != nil {
				t.Fatalf("%s: no decisions, so the layouts coincide, but it was rejected: %v", tc.name, err)
			}
			continue
		}
		if !errors.Is(err, errMalformed) {
			t.Fatalf("%s: 2 B per decision accepted (err %v)", tc.name, err)
		}
	}
}

// TestReceptionBodyExactSize pins a full-size reception's MsgRx body at
// its exact encoded length, one hint byte per decision, grown once.
func TestReceptionBodyExactSize(t *testing.T) {
	n := frame.MaxPayload
	rec := &frame.Reception{
		HeaderOK:     true,
		Hdr:          frame.Header{Length: uint16(n)},
		Decisions:    make([]phy.Decision, frame.SymbolsPerByte*n),
		PayloadBytes: make([]byte, n),
	}
	if got, want := len(appendReception(nil, 1, rec)), 4535; got != want {
		t.Fatalf("1500 B reception body is %d B, want %d", got, want)
	}
	// Under -race, slices.Grow's make is not folded into its append and
	// allocates on its own; the one-allocation rule holds for normal builds.
	if a := testing.AllocsPerRun(20, func() { appendReception(nil, 1, rec) }); a != 1 && !raceEnabled {
		t.Fatalf("appendReception allocates %v times, want 1", a)
	}
}
