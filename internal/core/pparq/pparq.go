// Package pparq implements the streaming-ACK PP-ARQ protocol of Sec. 5.2 —
// the full sender/receiver exchange built on top of SoftPHY labels, the
// chunking dynamic program, and the feedback codec:
//
//  1. the sender transmits the full packet, checksum appended;
//  2. the receiver decodes it (possibly partially, possibly only via its
//     postamble), computes the optimal feedback set of chunks, and sends it
//     back with per-good-segment checksums;
//  3. the sender retransmits exactly the requested runs (plus any good run
//     whose receiver checksum fails its own verification — a detected
//     SoftPHY miss) together with checksums of everything it did not
//     retransmit;
//  4. rounds repeat until every symbol of the packet is verified.
//
// Control packets (feedback and retransmission frames) travel over the same
// lossy links as data; a control frame is accepted only when its own packet
// CRC verifies and is re-sent otherwise. All transmitted bytes, in both
// directions and for every attempt, are accounted in Stats — that
// accounting is what Figs. 11 and 16 measure.
package pparq

import (
	"errors"
	"fmt"
	"sort"

	"ppr/internal/bitutil"
	"ppr/internal/core/chunkdp"
	"ppr/internal/core/feedback"
	"ppr/internal/core/recovery"
	"ppr/internal/core/softphy"
	"ppr/internal/frame"
)

// Control payload type bytes. A data frame's payload is the raw
// network-layer data; control frames prefix their body with one of these.
const (
	// TypeFeedback marks a receiver→sender feedback request.
	TypeFeedback = 0x02
	// TypeResponse marks a sender→receiver partial retransmission.
	TypeResponse = 0x03
)

// Link is one direction of a wireless hop: it carries a frame to the peer
// and reports what the peer's receiver pipeline produced. A nil reception
// means the peer never acquired the frame (no preamble or postamble lock).
type Link interface {
	// Transmit sends the frame and returns the peer's reception, if any.
	Transmit(f frame.Frame) *frame.Reception
}

// Config tunes the protocol.
type Config struct {
	// Labeler interprets SoftPHY hints; defaults to the paper's η = 6
	// threshold rule.
	Labeler softphy.Labeler
	// LambdaC is the per-segment checksum width in bits (default 32).
	LambdaC int
	// MaxRounds bounds feedback/retransmission rounds per packet.
	MaxRounds int
	// MaxAttempts bounds transmissions of any single frame (data retries
	// when the receiver never acquires it, and control-frame retries).
	MaxAttempts int
	// MaxChunks caps the number of chunks per feedback request; 0 means the
	// DP-optimal (unbounded) plan. Capping coalesces adjacent chunks —
	// retransmitting a few good symbols in exchange for a shorter feedback
	// frame, which survives adversarial jamming of the reverse link better
	// (see recovery.BuildRequestCapped and the netsim countermeasure layers).
	MaxChunks int
}

// fill returns cfg with defaults applied.
func (c Config) fill() Config {
	if c.Labeler == nil {
		c.Labeler = softphy.Threshold{Eta: softphy.DefaultEta}
	}
	if c.LambdaC == 0 {
		c.LambdaC = feedback.DefaultChecksumBits
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 8
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 16
	}
	return c
}

// Stats accounts every byte the protocol put on the air for one transfer.
type Stats struct {
	// DataAirBytes counts full data-frame transmissions (initial send plus
	// any full retransmissions after acquisition failures).
	DataAirBytes int
	// RetxAirBytes counts partial-retransmission (response) frames.
	RetxAirBytes int
	// FeedbackAirBytes counts reverse-link feedback frames.
	FeedbackAirBytes int
	// Rounds is the number of feedback/retransmission rounds used.
	Rounds int
	// RetxPayloadSizes records the payload size in bytes of each response
	// frame — the distribution Fig. 16 plots.
	RetxPayloadSizes []int
	// FullResends counts times the whole data frame had to be resent
	// because the receiver acquired nothing.
	FullResends int
	// Misses counts good segments whose checksums failed sender-side
	// verification (SoftPHY misses caught by the protocol).
	Misses int
	// ChunkCaps counts feedback rounds whose request hit Config.MaxChunks
	// and was coalesced.
	ChunkCaps int
	// VerifiedSymbols is how many payload symbols ended checksum-verified —
	// all of them on success, and on give-up the partial content PPR's
	// philosophy still lets the receiver hand to higher layers (the
	// closed-loop simulator credits it, exactly as fragmented CRC banks its
	// verified fragments).
	VerifiedSymbols int
}

// TotalAirBytes sums every byte transmitted in both directions.
func (s Stats) TotalAirBytes() int {
	return s.DataAirBytes + s.RetxAirBytes + s.FeedbackAirBytes
}

// ErrGiveUp is returned when the protocol exhausts MaxRounds or
// MaxAttempts without verifying the whole packet.
var ErrGiveUp = errors.New("pparq: gave up before packet fully verified")

// ErrBadRequest is returned when a feedback request that crossed the
// reverse link does not describe a packet in flight: an unknown sequence
// number, a symbol count other than the packet's, or a checksum list that
// does not match its segments. The reverse link may be a remote radio
// head, so the sender treats the request as untrusted input.
var ErrBadRequest = errors.New("pparq: feedback request does not match a packet in flight")

// Sender holds the transmit-side state: the symbols of packets in flight,
// keyed by sequence number, so it can serve retransmission requests.
type Sender struct {
	cfg  Config
	fwd  Link
	rev  Link
	src  uint16
	dst  uint16
	seq  uint16
	sent map[uint16][]byte // seq → payload symbols (one byte per symbol)
}

// NewSender builds a sender for the src→dst link pair. fwd carries frames
// to the receiver; rev carries the receiver's feedback back (PP-ARQ is
// asymmetric: rev is used by the peer's Receiver, the sender only listens).
func NewSender(fwd, rev Link, src, dst uint16, cfg Config) *Sender {
	return &Sender{cfg: cfg.fill(), fwd: fwd, rev: rev, src: src, dst: dst, sent: map[uint16][]byte{}}
}

// Transfer delivers one payload with full PP-ARQ recovery, returning the
// payload as verified by the receiver and the byte accounting. It drives
// both ends of the exchange against the configured links.
func (s *Sender) Transfer(payload []byte) (delivered []byte, st Stats, err error) {
	var chunksRequested int64
	defer func() { recordTransfer(&st, chunksRequested) }()
	cfg := s.cfg
	seq := s.seq
	s.seq++
	syms := bitutil.NibblesFromBytes(payload)
	s.sent[seq] = syms
	defer delete(s.sent, seq)

	dataFrame := frame.New(s.dst, s.src, seq, payload)
	airBytes := frame.AirBytes(len(payload))

	// Phase 1: get the packet acquired at all (preamble or postamble).
	var rec *frame.Reception
	for attempt := 0; attempt < cfg.MaxAttempts; attempt++ {
		st.DataAirBytes += airBytes
		rec = s.fwd.Transmit(dataFrame)
		if rec != nil && rec.HeaderOK {
			break
		}
		rec = nil
		st.FullResends++
	}
	if rec == nil {
		return nil, st, fmt.Errorf("%w: data frame never acquired", ErrGiveUp)
	}

	// Receiver-side assembler.
	asm := recovery.New(len(syms))
	defer func() { st.VerifiedSymbols = asm.VerifiedCount() }()
	if err := asm.Init(rec.MissingPrefix, rec.Decisions, cfg.Labeler); err != nil {
		return nil, st, err
	}
	if rec.CRCOK {
		asm.MarkAllVerified()
	}

	for round := 0; round < cfg.MaxRounds; round++ {
		st.Rounds = round + 1
		// Phase 2: receiver sends feedback (reliably, with retries). The
		// sender works from the copy that actually crossed the reverse
		// link, exercising the codec end to end.
		req, capped := asm.BuildRequestCapped(seq, cfg.LambdaC, cfg.MaxChunks)
		req = ClampRequest(req, cfg.LambdaC)
		if capped {
			st.ChunkCaps++
		}
		chunksRequested += int64(len(req.Chunks))
		fbBody := append([]byte{TypeFeedback}, req.Encode(cfg.LambdaC)...)
		fbRec, err := s.sendControl(s.rev, fbBody, &st.FeedbackAirBytes, nil)
		if err != nil {
			return nil, st, err
		}
		if req.CRCVerified {
			break
		}
		reqAtSender, err := feedback.DecodeRequest(controlBody(fbRec), cfg.LambdaC)
		if err != nil {
			return nil, st, fmt.Errorf("pparq: sender could not parse delivered feedback: %w", err)
		}
		// Phase 3: sender builds and sends the partial retransmission.
		resp, misses, err := s.buildResponse(reqAtSender)
		if err != nil {
			return nil, st, err
		}
		st.Misses += misses
		respBody := append([]byte{TypeResponse}, resp.Encode(cfg.LambdaC)...)
		respRec, err := s.sendControl(s.fwd, respBody, &st.RetxAirBytes, &st.RetxPayloadSizes)
		if err != nil {
			return nil, st, err
		}
		respAtReceiver, err := feedback.DecodeResponse(controlBody(respRec), cfg.LambdaC)
		if err != nil {
			return nil, st, fmt.Errorf("pparq: receiver could not parse delivered response: %w", err)
		}
		// Phase 4: receiver patches and verifies.
		if _, err := asm.ApplyResponse(respAtReceiver, cfg.LambdaC); err != nil {
			return nil, st, err
		}
		if asm.Complete() {
			// Final ACK so the sender can release the packet.
			ack := feedback.Request{Seq: seq, NumSymbols: len(syms), CRCVerified: true}
			ackBody := append([]byte{TypeFeedback}, ack.Encode(cfg.LambdaC)...)
			if _, err := s.sendControl(s.rev, ackBody, &st.FeedbackAirBytes, nil); err != nil {
				return nil, st, err
			}
			break
		}
	}
	if !asm.Complete() {
		return nil, st, fmt.Errorf("%w: %d of %d symbols verified after %d rounds",
			ErrGiveUp, asm.VerifiedCount(), asm.NumSymbols(), st.Rounds)
	}
	return asm.Payload(), st, nil
}

// MaxControlBody is the largest control-frame payload the protocol will
// build: the link layer's maximum payload minus the control type byte.
// Feedback requests and retransmission responses that would exceed it are
// clamped — see ClampRequest and capResponse — and the residue is recovered
// on a later round. Without the clamp, a 1500-byte packet whose symbols are
// all bad asks for a retransmission bigger than a frame can carry.
const MaxControlBody = frame.MaxPayload - 1

// ClampRequest bounds a feedback request to MaxControlBody. A request small
// enough to fit is returned unchanged; an oversized one (pathological
// receptions can produce thousands of alternating chunks whose gamma codes
// outgrow the frame) degenerates to the one request that is always tiny:
// retransmit the whole packet.
func ClampRequest(req feedback.Request, lambdaC int) feedback.Request {
	if req.CRCVerified || (feedback.RequestBits(req, lambdaC)+7)/8 <= MaxControlBody {
		return req
	}
	return feedback.Request{
		Seq:        req.Seq,
		NumSymbols: req.NumSymbols,
		Chunks:     []chunkdp.Chunk{{StartSym: 0, EndSym: req.NumSymbols}},
	}
}

// buildResponse serves a feedback request from the sender's stored symbols:
// requested chunks are filled with the true symbols; good segments are
// verified against the receiver's checksums, and any that fail are promoted
// to retransmitted chunks (the receiver was fooled by a miss). The response
// is capped at MaxControlBody: retransmission that does not fit is demoted
// to checksummed segments, which fail verification at the receiver and are
// re-requested next round. A request that does not match a packet in
// flight yields ErrBadRequest.
func (s *Sender) buildResponse(req feedback.Request) (feedback.Response, int, error) {
	syms, ok := s.sent[req.Seq]
	if !ok {
		return feedback.Response{}, 0, fmt.Errorf("%w: unknown seq %d", ErrBadRequest, req.Seq)
	}
	if req.NumSymbols != len(syms) {
		return feedback.Response{}, 0, fmt.Errorf("%w: seq %d names %d symbols, packet has %d",
			ErrBadRequest, req.Seq, req.NumSymbols, len(syms))
	}
	segs := feedback.Segments(req.NumSymbols, req.Chunks)
	if len(req.SegChecksums) != len(segs) {
		return feedback.Response{}, 0, fmt.Errorf("%w: seq %d carries %d checksums for %d segments",
			ErrBadRequest, req.Seq, len(req.SegChecksums), len(segs))
	}
	misses := 0
	type span struct{ start, end int }
	var retx []span
	for _, c := range req.Chunks {
		retx = append(retx, span{c.StartSym, c.EndSym})
	}
	for i, seg := range segs {
		w := feedback.ChecksumWidth(seg.Len, s.cfg.LambdaC)
		if feedback.SymbolChecksum(syms[seg.Start:seg.End()], w) != req.SegChecksums[i] {
			misses++
			retx = append(retx, span{seg.Start, seg.End()})
		}
	}
	sort.Slice(retx, func(a, b int) bool { return retx[a].start < retx[b].start })

	resp := feedback.Response{Seq: req.Seq, NumSymbols: req.NumSymbols}
	for _, sp := range retx {
		resp.Chunks = append(resp.Chunks, feedback.RespChunk{
			Start: sp.start,
			Syms:  append([]byte(nil), syms[sp.start:sp.end]...),
		})
	}
	s.fillSegChecksums(&resp, syms)
	s.capResponse(&resp, syms)
	return resp, misses, nil
}

// fillSegChecksums recomputes a response's segment checksums as the
// complement of its current chunk list.
func (s *Sender) fillSegChecksums(resp *feedback.Response, syms []byte) {
	asChunks := make([]chunkdp.Chunk, len(resp.Chunks))
	for i, c := range resp.Chunks {
		asChunks[i] = chunkdp.Chunk{StartSym: c.Start, EndSym: c.End()}
	}
	resp.SegChecksums = resp.SegChecksums[:0]
	for _, seg := range feedback.Segments(resp.NumSymbols, asChunks) {
		w := feedback.ChecksumWidth(seg.Len, s.cfg.LambdaC)
		resp.SegChecksums = append(resp.SegChecksums, feedback.SymbolChecksum(syms[seg.Start:seg.End()], w))
	}
}

// capResponse shrinks a response until its encoding fits MaxControlBody by
// truncating (then dropping) the trailing retransmission chunk; the shed
// symbols join the checksummed complement, fail verification at the
// receiver, and come back in the next round's request. Each iteration
// strictly reduces the retransmitted symbol count, so the loop terminates —
// in the limit at a chunkless response, which always fits.
func (s *Sender) capResponse(resp *feedback.Response, syms []byte) {
	for len(resp.Encode(s.cfg.LambdaC)) > MaxControlBody {
		last := len(resp.Chunks) - 1
		if c := resp.Chunks[last]; len(c.Syms) > 16 {
			resp.Chunks[last].Syms = c.Syms[:len(c.Syms)/2]
		} else {
			resp.Chunks = resp.Chunks[:last]
		}
		s.fillSegChecksums(resp, syms)
	}
}

// DeliverControl transmits a prebuilt control frame until the peer
// receives it with a verified packet CRC, charging every attempt's air
// bytes to counter. This is the one reliable-control-delivery loop in the
// codebase: the PP-ARQ sender and the closed-loop ARQ baselines
// (internal/netsim) share its retry bound, accounting and acceptance
// predicate.
func DeliverControl(l Link, f frame.Frame, maxAttempts int, counter *int) (*frame.Reception, error) {
	air := frame.AirBytes(len(f.Payload))
	for attempt := 0; attempt < maxAttempts; attempt++ {
		*counter += air
		if rec := l.Transmit(f); rec != nil && rec.HeaderOK && rec.CRCOK {
			return rec, nil
		}
	}
	return nil, fmt.Errorf("%w: control frame (%d bytes) never delivered", ErrGiveUp, len(f.Payload))
}

// sendControl frames a control body and delivers it reliably, recording the
// accepted frame's payload size when sizes is non-nil.
func (s *Sender) sendControl(l Link, body []byte, counter *int, sizes *[]int) (*frame.Reception, error) {
	f := frame.New(s.dst, s.src, s.seq, body)
	s.seq++
	rec, err := DeliverControl(l, f, s.cfg.MaxAttempts, counter)
	if err == nil && sizes != nil {
		*sizes = append(*sizes, len(body))
	}
	return rec, err
}

// controlBody strips the control type byte from a delivered control frame.
func controlBody(rec *frame.Reception) []byte {
	if len(rec.PayloadBytes) < 1 {
		return nil
	}
	return rec.PayloadBytes[1:]
}
