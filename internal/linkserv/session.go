package linkserv

import (
	"time"

	"ppr/internal/core/pparq"
	"ppr/internal/frame"
	"ppr/internal/obs"
	"ppr/internal/wire"
)

// session drives the PP-ARQ machinery for one open flow. It owns no
// connection state beyond its bounded inbox: the reader feeds it decoded
// messages, it feeds frames back through the connection's bounded queue.
// One goroutine per session, cheap enough for tens of thousands of flows.
type session struct {
	srv  *Server
	conn *serverConn
	flow uint32

	inbox  chan inMsg
	sender *pparq.Sender
	bo     Backoff
	lane   *obs.TraceLane
	// exchTimer bounds each sessLink.Transmit wait. Transmits run one at
	// a time on the session goroutine, so one timer serves them all (see
	// arm).
	exchTimer *time.Timer

	nextExch uint32
	lastXid  uint32
	lastDone []byte
	haveDone bool

	dead    bool // connection gone or queue wedged: unwind without I/O
	closing bool // MsgClose observed: acknowledge and exit
}

// Link-layer addresses for the server-driven exchange: the sender radio is
// 1, the receiver radio is 2. The addressing is per-flow, so the constants
// never collide across sessions.
const (
	addrSender   = 1
	addrReceiver = 2
)

func newSession(c *serverConn, flow uint32) *session {
	s := &session{
		srv:   c.srv,
		conn:  c,
		flow:  flow,
		inbox: make(chan inMsg, sessionInbox),
		bo:    newBackoff(c.srv.cfg.BackoffBase, c.srv.cfg.BackoffCap),
	}
	s.sender = pparq.NewSender(
		&sessLink{s: s, dir: DirForward},
		&sessLink{s: s, dir: DirReverse},
		addrSender, addrReceiver, pparq.Config{})
	if c.srv.proc != nil {
		s.lane = c.srv.proc.Lane(c.id<<32|int64(flow), "flow")
	}
	return s
}

func (s *session) enqueue(typ byte, body []byte) bool {
	return s.conn.enqueue(wire.Frame{Type: typ, Flow: s.flow, Payload: body},
		s.srv.cfg.EnqueueTimeout)
}

// run is the session goroutine: serve messages until the client closes the
// flow, the flow idles out, the connection dies, or the server drains. The
// drain channel is consulted only between transfers, so an in-flight
// transfer always finishes (or deadlines out) before the session exits.
func (s *session) run() {
	start := s.srv.micros()
	defer func() {
		if s.lane != nil {
			s.lane.Span("flow", "linkserv", start, s.srv.micros()-start,
				map[string]any{"flow": s.flow})
		}
		s.conn.removeSession(s.flow)
		s.conn.wg.Done()
		s.srv.wg.Done()
	}()

	idle := time.NewTimer(s.srv.cfg.FlowIdleTimeout)
	defer idle.Stop()
	for {
		select {
		case m := <-s.inbox:
			idle.Reset(s.srv.cfg.FlowIdleTimeout)
			if s.handle(m) {
				return
			}
		case <-s.conn.closedCh:
			return
		case <-s.srv.drainCh:
			// Serve whatever the reader already queued, then announce.
			for {
				select {
				case m := <-s.inbox:
					if s.handle(m) {
						return
					}
					continue
				default:
				}
				break
			}
			s.enqueue(MsgClosed, []byte{ClosedDraining})
			return
		case <-idle.C:
			s.enqueue(MsgClosed, []byte{ClosedIdle})
			return
		}
	}
}

// handle processes one inbox message, reporting whether the session should
// exit.
func (s *session) handle(m inMsg) (exit bool) {
	switch m.typ {
	case MsgTransfer:
		s.handleTransfer(m.body)
		if s.closing {
			s.enqueue(MsgClosed, []byte{ClosedByClient})
			return true
		}
		return s.dead
	case MsgClose:
		s.enqueue(MsgClosed, []byte{ClosedByClient})
		return true
	case MsgOpen:
		// Duplicate open routed before the session registered: re-ack.
		s.srv.m.flowsReopened.Inc()
		s.enqueue(MsgOpenOK, nil)
		return false
	case MsgRx:
		// A reception with no exchange waiting for it: stale.
		s.srv.m.staleRx.Inc()
		return false
	default:
		s.srv.m.malformed.Inc()
		return false
	}
}

// handleTransfer runs one PP-ARQ transfer and answers with MsgDone. The
// xid makes it idempotent: a duplicate of the last completed transfer —
// the client retrying because the done frame was lost — is answered from
// cache instead of moving the payload twice.
func (s *session) handleTransfer(body []byte) {
	xid, payload, err := parseTransfer(body)
	if err != nil {
		s.srv.m.malformed.Inc()
		return
	}
	if s.haveDone && xid == s.lastXid {
		s.srv.m.doneReplays.Inc()
		s.enqueue(MsgDone, s.lastDone)
		return
	}

	done := doneMsg{Xid: xid}
	if len(payload) == 0 {
		done.Status = StatusGiveUp
		done.Err = "empty payload"
	} else {
		start := s.srv.micros()
		delivered, st, terr := s.sender.Transfer(payload)
		done.Stats = st
		if terr != nil {
			done.Status = StatusGiveUp
			done.Err = terr.Error()
			s.srv.m.transfersGiveUp.Inc()
		} else {
			done.Status = StatusOK
			done.Delivered = delivered
			s.srv.m.transfersOK.Inc()
		}
		s.srv.m.transferRounds.Observe(int64(st.Rounds))
		s.srv.m.transferMicros.Observe(s.srv.micros() - start)
		if s.lane != nil {
			s.lane.Span("transfer", "linkserv", start, s.srv.micros()-start,
				map[string]any{"xid": xid, "bytes": len(payload),
					"rounds": st.Rounds, "status": int(done.Status)})
		}
	}
	s.lastXid = xid
	s.lastDone = appendDone(nil, done)
	s.haveDone = true
	s.enqueue(MsgDone, s.lastDone)
}

// sessLink is one direction of the flow's radio hop as PP-ARQ sees it:
// Transmit ships the frame to the client's radio head as MsgAir and waits
// for the matching MsgRx under the exchange deadline. Anything the
// transport does to the exchange — drop, corruption beyond the wire codec's
// tolerance, a stalled peer — converges to returning nil, which is exactly
// a radio acquisition failure to the protocol above.
type sessLink struct {
	s   *session
	dir byte
}

func (l *sessLink) Transmit(f frame.Frame) *frame.Reception {
	s := l.s
	if s.dead || s.closing {
		return nil
	}
	exch := s.nextExch
	s.nextExch++
	body := appendAir(nil, airMsg{
		Exch: exch, Dir: l.dir,
		Dst: f.Hdr.Dst, Src: f.Hdr.Src, Seq: f.Hdr.Seq,
		Payload: f.Payload,
	})
	if !s.enqueue(MsgAir, body) {
		s.dead = true
		return nil
	}
	expired := arm(&s.exchTimer, s.srv.cfg.ExchangeTimeout)
	defer s.exchTimer.Stop()
	for {
		select {
		case m := <-s.inbox:
			switch m.typ {
			case MsgRx:
				e, rec, err := parseReception(m.body)
				if err != nil {
					s.srv.m.malformed.Inc()
					continue
				}
				if e != exch {
					s.srv.m.staleRx.Inc()
					continue
				}
				s.bo.Reset()
				return rec
			case MsgTransfer:
				// The client retrying the in-flight transfer (or a stale
				// duplicate): the answer it wants is the MsgDone this
				// transfer will produce.
				s.srv.m.dupTransfers.Inc()
			case MsgClose:
				s.closing = true
				return nil
			case MsgOpen:
				s.srv.m.flowsReopened.Inc()
				s.enqueue(MsgOpenOK, nil)
			default:
				s.srv.m.malformed.Inc()
			}
		case <-s.conn.closedCh:
			s.dead = true
			return nil
		case <-expired:
			s.srv.m.exchTimeouts.Inc()
			sleepOr(s.bo.Next(), s.conn.closedCh)
			return nil
		}
	}
}
