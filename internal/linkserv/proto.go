// Package linkserv serves PP-ARQ links as a long-running network service:
// a server accepts TCP or in-memory pipe connections carrying wire frames
// (internal/wire), runs one goroutine-cheap session per flow, and each
// session drives the existing internal/core/pparq transfer machinery
// unchanged — the client end acts as the remote radio head, running every
// link-layer frame through the real receiver pipeline (optionally through
// a simulated channel impairment) and shipping the resulting SoftPHY
// reception back.
//
// The transport is treated as hostile. Every session is wrapped in
// robustness machinery: per-exchange read deadlines, capped-exponential
// backoff on transient errors, bounded per-connection send queues with
// backpressure (a slow reader stalls its own flows and eventually loses
// its connection — it never OOMs the process), a circuit that sheds new
// flows past a configurable limit, and SIGTERM-style graceful drain that
// finishes in-flight transfers before exiting with zero leaked goroutines.
// A dropped, corrupted, reordered or duplicated wire frame surfaces to the
// protocol as exactly what PP-ARQ already recovers from: a lost or stale
// radio frame.
package linkserv

import (
	"encoding/binary"
	"errors"
	"math"

	"ppr/internal/core/pparq"
	"ppr/internal/frame"
	"ppr/internal/phy"
)

// Message types carried in wire.Frame.Type.
const (
	// MsgOpen (client→server) opens the flow named by the frame's flow ID.
	// Body: flags(1). Idempotent: re-opening an open flow re-acks.
	MsgOpen = 0x01
	// MsgOpenOK (server→client) acknowledges an open flow. Empty body.
	MsgOpenOK = 0x02
	// MsgOpenErr (server→client) refuses a flow. Body: code(1) msgLen(2) msg.
	MsgOpenErr = 0x03
	// MsgTransfer (client→server) requests one PP-ARQ transfer of the body
	// payload back to the client's radio head. Body: xid(4) payload.
	// Idempotent per xid: the session replays the cached MsgDone for the
	// last completed xid instead of transferring twice.
	MsgTransfer = 0x04
	// MsgAir (server→client) carries one link-layer frame to pass through
	// the remote radio head. Body: exch(4) dir(1) dst(2) src(2) seq(2)
	// payload.
	MsgAir = 0x05
	// MsgRx (client→server) returns the radio head's reception for one
	// exchange. Body: exch(4) present(1) [reception].
	MsgRx = 0x06
	// MsgDone (server→client) completes a transfer. Body: xid(4) status(1)
	// errLen(2) err [stats delivered].
	MsgDone = 0x07
	// MsgClose (client→server) closes the flow. Empty body.
	MsgClose = 0x08
	// MsgClosed (server→client) confirms a flow is gone. Body: reason(1).
	MsgClosed = 0x09
	// MsgGoAway (server→client, flow 0) announces a draining server: no
	// new flows will be accepted. Empty body.
	MsgGoAway = 0x0A
)

// Link directions inside MsgAir.
const (
	// DirForward carries data and retransmission frames toward the
	// receiver's radio.
	DirForward = 0
	// DirReverse carries feedback frames toward the sender's radio.
	DirReverse = 1
)

// MsgOpenErr codes.
const (
	// CodeBusy sheds a flow because the server is at its flow limit.
	CodeBusy = 1
	// CodeDraining refuses a flow because the server is shutting down.
	CodeDraining = 2
)

// MsgDone status values.
const (
	// StatusOK delivered the full payload, checksum-verified.
	StatusOK = 0
	// StatusGiveUp is a clean protocol give-up (pparq.ErrGiveUp) or
	// transfer error; the error string carries the cause.
	StatusGiveUp = 1
)

// MsgClosed reasons.
const (
	// ClosedByClient acknowledges a MsgClose.
	ClosedByClient = 0
	// ClosedIdle closes a flow whose client went quiet.
	ClosedIdle = 1
	// ClosedDraining closes an idle flow during graceful drain.
	ClosedDraining = 2
)

// Errors surfaced by the client API.
var (
	// ErrBusy is returned when the server shed the flow at its limit.
	ErrBusy = errors.New("linkserv: server at flow limit")
	// ErrDraining is returned when the server refuses flows while
	// draining.
	ErrDraining = errors.New("linkserv: server draining")
	// ErrClosed is returned when the connection or flow is gone.
	ErrClosed = errors.New("linkserv: connection closed")
	// ErrTimeout is returned when the peer stopped answering within the
	// configured deadlines and retries.
	ErrTimeout = errors.New("linkserv: peer deadline exceeded")
	// ErrGiveUp wraps a server-side transfer failure (the PP-ARQ protocol
	// gave up or errored); the flow remains usable.
	ErrGiveUp = errors.New("linkserv: transfer gave up")
)

// cursor is a bounds-checked reader over a message body. All reads after
// a failure return zero values; callers check ok() once at the end, so a
// hostile body can never panic the parser.
type cursor struct {
	b   []byte
	off int
	bad bool
}

func (c *cursor) need(n int) bool {
	if c.bad || c.off+n > len(c.b) {
		c.bad = true
		return false
	}
	return true
}

func (c *cursor) u8() byte {
	if !c.need(1) {
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

func (c *cursor) u16() uint16 {
	if !c.need(2) {
		return 0
	}
	v := binary.BigEndian.Uint16(c.b[c.off:])
	c.off += 2
	return v
}

func (c *cursor) u32() uint32 {
	if !c.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v
}

func (c *cursor) u64() uint64 {
	if !c.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v
}

func (c *cursor) bytes(n int) []byte {
	if n < 0 || !c.need(n) {
		return nil
	}
	v := c.b[c.off : c.off+n]
	c.off += n
	return v
}

func (c *cursor) rest() []byte {
	if c.bad {
		return nil
	}
	v := c.b[c.off:]
	c.off = len(c.b)
	return v
}

func (c *cursor) ok() bool { return !c.bad }

var errMalformed = errors.New("linkserv: malformed message")

// ---- MsgAir ----

// airMsg is one link-layer frame crossing the wire.
type airMsg struct {
	Exch    uint32
	Dir     byte
	Dst     uint16
	Src     uint16
	Seq     uint16
	Payload []byte
}

func appendAir(dst []byte, m airMsg) []byte {
	dst = binary.BigEndian.AppendUint32(dst, m.Exch)
	dst = append(dst, m.Dir)
	dst = binary.BigEndian.AppendUint16(dst, m.Dst)
	dst = binary.BigEndian.AppendUint16(dst, m.Src)
	dst = binary.BigEndian.AppendUint16(dst, m.Seq)
	return append(dst, m.Payload...)
}

func parseAir(b []byte) (airMsg, error) {
	c := cursor{b: b}
	m := airMsg{Exch: c.u32(), Dir: c.u8(), Dst: c.u16(), Src: c.u16(), Seq: c.u16()}
	m.Payload = c.rest()
	if !c.ok() || len(m.Payload) > frame.MaxPayload {
		return airMsg{}, errMalformed
	}
	return m, nil
}

// ---- MsgRx ----

// maxDecisions bounds a serialized reception's decision list: a maximal
// packet has two symbols per payload byte, plus slack for header slop.
const maxDecisions = 2*frame.MaxPayload + 64

// appendReception serializes exch plus the (possibly absent) reception.
// It is called before the pooled Receiver is released, so the reception's
// scratch-backed views are still valid.
func appendReception(dst []byte, exch uint32, rec *frame.Reception) []byte {
	dst = binary.BigEndian.AppendUint32(dst, exch)
	if rec == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	var flags byte
	if rec.HeaderOK {
		flags |= 1
	}
	if rec.CRCOK {
		flags |= 2
	}
	dst = append(dst, flags, byte(rec.Kind))
	dst = binary.BigEndian.AppendUint32(dst, uint32(rec.SyncDist))
	dst = binary.BigEndian.AppendUint32(dst, uint32(rec.PayloadStartChip))
	dst = binary.BigEndian.AppendUint32(dst, uint32(rec.MissingPrefix))
	dst = binary.BigEndian.AppendUint16(dst, rec.Hdr.Length)
	dst = binary.BigEndian.AppendUint16(dst, rec.Hdr.Dst)
	dst = binary.BigEndian.AppendUint16(dst, rec.Hdr.Src)
	dst = binary.BigEndian.AppendUint16(dst, rec.Hdr.Seq)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(rec.Decisions)))
	for _, d := range rec.Decisions {
		dst = append(dst, d.Symbol)
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(d.Hint))
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(rec.PayloadBytes)))
	return append(dst, rec.PayloadBytes...)
}

// parseReception decodes a MsgRx body into an owned Reception (nil when
// the radio head acquired nothing). Limits reject hostile sizes before any
// allocation proportional to them; a reception whose decision and payload
// counts disagree with its header, and non-finite hints, are rejected.
func parseReception(b []byte) (exch uint32, rec *frame.Reception, err error) {
	c := cursor{b: b}
	exch = c.u32()
	present := c.u8()
	if !c.ok() {
		return 0, nil, errMalformed
	}
	if present == 0 {
		if !c.ok() {
			return 0, nil, errMalformed
		}
		return exch, nil, nil
	}
	flags := c.u8()
	r := &frame.Reception{
		HeaderOK: flags&1 != 0,
		CRCOK:    flags&2 != 0,
		Kind:     frame.SyncKind(c.u8()),
	}
	r.SyncDist = int(int32(c.u32()))
	r.PayloadStartChip = int(int32(c.u32()))
	r.MissingPrefix = int(int32(c.u32()))
	r.Hdr = frame.Header{Length: c.u16(), Dst: c.u16(), Src: c.u16(), Seq: c.u16()}
	nDec := int(c.u32())
	if c.bad || nDec < 0 || nDec > maxDecisions || r.MissingPrefix < 0 {
		return 0, nil, errMalformed
	}
	// Shape: a verified header bounds the symbols and fixes the payload
	// length; without one the receiver delivers neither.
	wantPay := 0
	if r.HeaderOK {
		wantPay = int(r.Hdr.Length)
	}
	if r.MissingPrefix+nDec > frame.SymbolsPerByte*wantPay {
		return 0, nil, errMalformed
	}
	if !c.need(nDec * 9) {
		return 0, nil, errMalformed
	}
	r.Decisions = make([]phy.Decision, nDec)
	for i := range r.Decisions {
		r.Decisions[i].Symbol = c.u8()
		// A NaN or infinite hint would poison the sender's chunk DP.
		hint := math.Float64frombits(c.u64())
		if math.IsNaN(hint) || math.IsInf(hint, 0) {
			return 0, nil, errMalformed
		}
		r.Decisions[i].Hint = hint
	}
	nPay := int(c.u32())
	if c.bad || nPay != wantPay || nPay > frame.MaxPayload {
		return 0, nil, errMalformed
	}
	r.PayloadBytes = append([]byte(nil), c.bytes(nPay)...)
	if !c.ok() || c.off != len(b) {
		return 0, nil, errMalformed
	}
	return exch, r, nil
}

// ---- MsgDone ----

// doneMsg completes one transfer.
type doneMsg struct {
	Xid       uint32
	Status    byte
	Err       string
	Stats     pparq.Stats
	Delivered []byte
}

func appendDone(dst []byte, m doneMsg) []byte {
	dst = binary.BigEndian.AppendUint32(dst, m.Xid)
	dst = append(dst, m.Status)
	errStr := m.Err
	if len(errStr) > 1024 {
		errStr = errStr[:1024]
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(errStr)))
	dst = append(dst, errStr...)
	st := m.Stats
	dst = binary.BigEndian.AppendUint64(dst, uint64(st.DataAirBytes))
	dst = binary.BigEndian.AppendUint64(dst, uint64(st.RetxAirBytes))
	dst = binary.BigEndian.AppendUint64(dst, uint64(st.FeedbackAirBytes))
	dst = binary.BigEndian.AppendUint32(dst, uint32(st.Rounds))
	dst = binary.BigEndian.AppendUint32(dst, uint32(st.FullResends))
	dst = binary.BigEndian.AppendUint32(dst, uint32(st.Misses))
	dst = binary.BigEndian.AppendUint32(dst, uint32(st.ChunkCaps))
	dst = binary.BigEndian.AppendUint32(dst, uint32(st.VerifiedSymbols))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(st.RetxPayloadSizes)))
	for _, v := range st.RetxPayloadSizes {
		dst = binary.BigEndian.AppendUint32(dst, uint32(v))
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Delivered)))
	return append(dst, m.Delivered...)
}

func parseDone(b []byte) (doneMsg, error) {
	c := cursor{b: b}
	m := doneMsg{Xid: c.u32(), Status: c.u8()}
	m.Err = string(c.bytes(int(c.u16())))
	m.Stats.DataAirBytes = int(c.u64())
	m.Stats.RetxAirBytes = int(c.u64())
	m.Stats.FeedbackAirBytes = int(c.u64())
	m.Stats.Rounds = int(int32(c.u32()))
	m.Stats.FullResends = int(int32(c.u32()))
	m.Stats.Misses = int(int32(c.u32()))
	m.Stats.ChunkCaps = int(int32(c.u32()))
	m.Stats.VerifiedSymbols = int(int32(c.u32()))
	nRetx := int(c.u32())
	if c.bad || nRetx < 0 || nRetx > 1<<16 {
		return doneMsg{}, errMalformed
	}
	if nRetx > 0 {
		if !c.need(nRetx * 4) {
			return doneMsg{}, errMalformed
		}
		m.Stats.RetxPayloadSizes = make([]int, nRetx)
		for i := range m.Stats.RetxPayloadSizes {
			m.Stats.RetxPayloadSizes[i] = int(int32(c.u32()))
		}
	}
	nDel := int(c.u32())
	if c.bad || nDel < 0 || nDel > frame.MaxPayload {
		return doneMsg{}, errMalformed
	}
	m.Delivered = append([]byte(nil), c.bytes(nDel)...)
	if !c.ok() || c.off != len(b) {
		return doneMsg{}, errMalformed
	}
	return m, nil
}

// ---- small bodies ----

func appendOpenErr(dst []byte, code byte, msg string) []byte {
	if len(msg) > 256 {
		msg = msg[:256]
	}
	dst = append(dst, code)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(msg)))
	return append(dst, msg...)
}

func parseOpenErr(b []byte) (code byte, msg string, err error) {
	c := cursor{b: b}
	code = c.u8()
	msg = string(c.bytes(int(c.u16())))
	if !c.ok() {
		return 0, "", errMalformed
	}
	return code, msg, nil
}

func parseTransfer(b []byte) (xid uint32, payload []byte, err error) {
	c := cursor{b: b}
	xid = c.u32()
	payload = c.rest()
	if !c.ok() || len(payload) > frame.MaxPayload {
		return 0, nil, errMalformed
	}
	return xid, payload, nil
}
