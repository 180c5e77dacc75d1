package linkserv

import (
	"context"
	"errors"
	"net"
	"sync"
	"time"

	"ppr/internal/obs"
	"ppr/internal/wire"
)

// Config tunes the server's protocol and robustness machinery. The zero
// value is usable: every knob has a production default.
type Config struct {
	// MaxFlows is the circuit: opens past this many concurrently active
	// flows are shed with CodeBusy. Default 16384.
	MaxFlows int
	// QueueLen bounds each connection's outbound frame queue; a peer that
	// stops reading stalls its own flows against this bound instead of
	// growing process memory. Default 256.
	QueueLen int

	// ReadIdleTimeout bounds how long a connection may go completely
	// silent before it is torn down. Default 60s.
	ReadIdleTimeout time.Duration
	// WriteTimeout bounds each wire-frame write. Default 10s.
	WriteTimeout time.Duration
	// EnqueueTimeout bounds how long a session blocks enqueueing a frame
	// onto a full connection queue before treating the exchange as lost.
	// Default 5s.
	EnqueueTimeout time.Duration
	// ExchangeTimeout bounds each air/reception round trip; a missing
	// reception surfaces to PP-ARQ as a lost frame. Default 2s.
	ExchangeTimeout time.Duration
	// FlowIdleTimeout closes a flow whose client has gone quiet.
	// Default 60s.
	FlowIdleTimeout time.Duration

	// BackoffBase and BackoffCap shape the capped-exponential pacing a
	// session applies after consecutive exchange timeouts. Defaults
	// 10ms and 500ms.
	BackoffBase time.Duration
	BackoffCap  time.Duration

	// Metrics receives the linkserv.* counters; nil falls back to
	// obs.Default() (which may itself be disabled).
	Metrics *obs.Registry
	// Tracer, when set, records flow lifecycles and per-transfer spans.
	Tracer *obs.Tracer
	// Logf, when set, receives one line per abnormal event (torn-down
	// connections, refused flows). Nil means silent.
	Logf func(format string, args ...any)
}

func (c Config) fill() Config {
	if c.MaxFlows == 0 {
		c.MaxFlows = 16384
	}
	if c.QueueLen == 0 {
		c.QueueLen = 256
	}
	if c.ReadIdleTimeout == 0 {
		c.ReadIdleTimeout = 60 * time.Second
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.EnqueueTimeout == 0 {
		c.EnqueueTimeout = 5 * time.Second
	}
	if c.ExchangeTimeout == 0 {
		c.ExchangeTimeout = 2 * time.Second
	}
	if c.FlowIdleTimeout == 0 {
		c.FlowIdleTimeout = 60 * time.Second
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = 10 * time.Millisecond
	}
	if c.BackoffCap == 0 {
		c.BackoffCap = 500 * time.Millisecond
	}
	return c
}

// ErrServerClosed is returned by Serve after Shutdown stops the listener.
var ErrServerClosed = errors.New("linkserv: server closed")

// Server accepts connections carrying wire frames and runs one session per
// open flow, each driving the PP-ARQ transfer machinery. It survives
// hostile transports (see the package comment) and drains gracefully:
// Shutdown refuses new flows, lets in-flight transfers finish, and returns
// only when every goroutine the server started has exited.
type Server struct {
	cfg   Config
	m     *metrics
	proc  *obs.TraceProcess
	start time.Time

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*serverConn]struct{}
	flows     int
	nextConn  int64
	draining  bool

	drainCh chan struct{}
	wg      sync.WaitGroup
}

// NewServer builds a server with cfg's defaults applied.
func NewServer(cfg Config) *Server {
	cfg = cfg.fill()
	s := &Server{
		cfg:       cfg,
		m:         newMetrics(cfg.Metrics),
		start:     time.Now(),
		listeners: map[net.Listener]struct{}{},
		conns:     map[*serverConn]struct{}{},
		drainCh:   make(chan struct{}),
	}
	if cfg.Tracer != nil {
		s.proc = cfg.Tracer.Process("linkserv", 1)
	}
	return s
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// micros is the trace timebase: microseconds since the server started.
func (s *Server) micros() int64 { return time.Since(s.start).Microseconds() }

// Serve accepts connections on l until Shutdown closes it, pacing retries
// of transient accept errors with capped-exponential backoff. It returns
// ErrServerClosed on graceful shutdown.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		l.Close()
		return ErrServerClosed
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()

	bo := newBackoff(s.cfg.BackoffBase, s.cfg.BackoffCap)
	for {
		c, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining || errors.Is(err, net.ErrClosed) {
				return ErrServerClosed
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				sleepOr(bo.Next(), s.drainCh)
				continue
			}
			return err
		}
		bo.Reset()
		s.AddConn(c)
	}
}

// AddConn serves one already-established connection — a TCP accept or one
// end of an in-memory pipe. It returns immediately; the connection's
// goroutines are owned (and waited for) by the server.
func (s *Server) AddConn(conn net.Conn) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.nextConn++
	c := &serverConn{
		srv:      s,
		id:       s.nextConn,
		c:        conn,
		out:      make(chan wire.Frame, s.cfg.QueueLen),
		closedCh: make(chan struct{}),
		flushCh:  make(chan struct{}),
		sessions: map[uint32]*session{},
	}
	s.conns[c] = struct{}{}
	n := int64(len(s.conns))
	s.mu.Unlock()

	s.m.connsAccepted.Inc()
	s.m.connsActive.Set(n)
	s.m.connsPeak.Max(n)

	// The reader is the connection's owning goroutine: it joins the writer
	// and the sessions (c.wg) before releasing its own s.wg slot.
	s.wg.Add(1)
	c.wg.Add(1)
	go c.writer()
	go c.reader()
}

// removeConn unregisters a finished connection.
func (s *Server) removeConn(c *serverConn) {
	s.mu.Lock()
	delete(s.conns, c)
	n := int64(len(s.conns))
	s.mu.Unlock()
	s.m.connsClosed.Inc()
	s.m.connsActive.Set(n)
}

// tryAddFlow applies the circuit: it reserves one flow slot unless the
// server is draining or at MaxFlows.
func (s *Server) tryAddFlow() (ok bool, errCode byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false, CodeDraining
	}
	if s.flows >= s.cfg.MaxFlows {
		return false, CodeBusy
	}
	s.flows++
	n := int64(s.flows)
	s.m.flowsActive.Set(n)
	s.m.flowsPeak.Max(n)
	return true, 0
}

func (s *Server) flowClosed() {
	s.mu.Lock()
	s.flows--
	n := int64(s.flows)
	s.mu.Unlock()
	s.m.flowsClosed.Inc()
	s.m.flowsActive.Set(n)
}

// Shutdown drains the server: it stops accepting connections and flows,
// announces MsgGoAway on every connection, lets in-flight transfers finish,
// and waits for every goroutine to exit. If ctx expires first, remaining
// connections are torn down hard and the wait resumes until the goroutines
// are gone — the zero-leak guarantee holds either way; ctx.Err() reports
// that the drain was forced.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	listeners := make([]net.Listener, 0, len(s.listeners))
	for l := range s.listeners {
		listeners = append(listeners, l)
	}
	conns := make([]*serverConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	for _, l := range listeners {
		l.Close()
	}
	if !already {
		close(s.drainCh)
	}
	// Announce the drain and immediately release connections with nothing
	// in flight; sessions release the rest as they finish.
	for _, c := range conns {
		c.enqueue(wire.Frame{Type: MsgGoAway}, 0)
		c.flushIfIdle()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		conns = conns[:0]
		for c := range s.conns {
			conns = append(conns, c)
		}
		s.mu.Unlock()
		for _, c := range conns {
			c.teardown()
		}
		<-done
		return ctx.Err()
	}
}

// inMsg is one routed message: a wire frame's type and (owned) body.
type inMsg struct {
	typ  byte
	body []byte
}

// sessionInbox bounds the per-flow message queue between the connection
// reader and the session goroutine. Overflow drops the message — to the
// protocol that is a lost frame, which it already recovers from.
const sessionInbox = 8

// serverConn is one accepted connection: a reader goroutine demuxing wire
// frames to per-flow sessions and a writer goroutine draining the bounded
// outbound queue. All teardown funnels through closeOnce, so a read error,
// write error, stalled queue, or server shutdown all converge on the same
// idempotent path.
type serverConn struct {
	srv *Server
	id  int64
	c   net.Conn

	out       chan wire.Frame
	closedCh  chan struct{}
	flushCh   chan struct{}
	closeOnce sync.Once
	flushOnce sync.Once

	mu       sync.Mutex
	sessions map[uint32]*session

	wg sync.WaitGroup // writer + sessions
}

// teardown closes the connection hard: wakes the reader, stops the writer,
// and unblocks every session select on closedCh. Idempotent.
func (c *serverConn) teardown() {
	c.closeOnce.Do(func() {
		close(c.closedCh)
		c.c.Close()
	})
}

// flush asks the writer to drain whatever is already queued and then close
// the connection — the graceful cousin of teardown, used when the last
// session exits during drain so its MsgDone/MsgClosed still reach the peer.
func (c *serverConn) flush() {
	c.flushOnce.Do(func() { close(c.flushCh) })
}

// flushIfIdle flushes the connection when no sessions remain on it.
func (c *serverConn) flushIfIdle() {
	c.mu.Lock()
	idle := len(c.sessions) == 0
	c.mu.Unlock()
	if idle {
		c.flush()
	}
}

// enqueue queues one outbound frame, giving up after timeout (0 means
// drop-if-full). A false return means the frame did not go out — callers
// treat that as a lost frame or a dead connection.
func (c *serverConn) enqueue(f wire.Frame, timeout time.Duration) bool {
	select {
	case c.out <- f:
		return true
	case <-c.closedCh:
		return false
	default:
	}
	if timeout <= 0 {
		c.srv.m.enqueueTimeouts.Inc()
		return false
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case c.out <- f:
		return true
	case <-c.closedCh:
		return false
	case <-t.C:
		c.srv.m.enqueueTimeouts.Inc()
		return false
	}
}

// writeFrame writes one frame under the write deadline.
func (c *serverConn) writeFrame(enc *wire.Encoder, f wire.Frame) bool {
	c.c.SetWriteDeadline(time.Now().Add(c.srv.cfg.WriteTimeout))
	if err := enc.Encode(f); err != nil {
		c.srv.m.writeErrors.Inc()
		return false
	}
	c.srv.m.framesOut.Inc()
	return true
}

func (c *serverConn) writer() {
	defer c.wg.Done()
	enc := wire.NewEncoder(c.c)
	for {
		select {
		case f := <-c.out:
			if !c.writeFrame(enc, f) {
				c.teardown()
				return
			}
		case <-c.flushCh:
			for {
				select {
				case f := <-c.out:
					if !c.writeFrame(enc, f) {
						c.teardown()
						return
					}
				default:
					c.teardown()
					return
				}
			}
		case <-c.closedCh:
			return
		}
	}
}

// reader is the connection's main goroutine: it decodes wire frames under
// the idle deadline and routes them, then owns the full teardown — wait for
// the writer and every session, fold the decoder's damage counters into the
// metrics, unregister.
func (c *serverConn) reader() {
	defer c.srv.wg.Done()
	dec := wire.NewDecoder(c.c)
	for {
		c.c.SetReadDeadline(time.Now().Add(c.srv.cfg.ReadIdleTimeout))
		f, err := dec.Next()
		if err != nil {
			if !errors.Is(err, net.ErrClosed) {
				c.srv.logf("linkserv: conn %d: read: %v", c.id, err)
			}
			break
		}
		c.srv.m.framesIn.Inc()
		c.route(f)
	}
	st := dec.Stats()
	c.srv.m.wireCRCErrors.Add(int64(st.CRCErrors))
	c.srv.m.wireResyncBytes.Add(int64(st.ResyncBytes))
	c.srv.m.wireOversize.Add(int64(st.Oversize))

	c.teardown()
	c.wg.Wait()
	c.srv.removeConn(c)
}

// route dispatches one decoded frame: opens create sessions, everything
// else lands in the owning session's bounded inbox.
func (c *serverConn) route(f wire.Frame) {
	if f.Type == MsgOpen {
		c.handleOpen(f.Flow)
		return
	}
	c.mu.Lock()
	sess := c.sessions[f.Flow]
	c.mu.Unlock()
	if sess == nil {
		// A transfer or close for a flow we do not hold: the client's state
		// is stale (reordered frames, a flow already idled out). MsgClosed
		// tells it definitively.
		if f.Type == MsgTransfer || f.Type == MsgClose {
			c.enqueue(wire.Frame{Type: MsgClosed, Flow: f.Flow, Payload: []byte{ClosedIdle}}, 0)
		}
		return
	}
	select {
	case sess.inbox <- inMsg{typ: f.Type, body: f.Payload}:
	default:
		c.srv.m.inboxDrops.Inc()
	}
}

// handleOpen creates (or re-acks) the session for a flow, applying the
// drain refusal and the MaxFlows circuit.
func (c *serverConn) handleOpen(flow uint32) {
	if flow == 0 {
		c.srv.m.malformed.Inc()
		return
	}
	c.mu.Lock()
	if c.sessions[flow] != nil {
		c.mu.Unlock()
		c.srv.m.flowsReopened.Inc()
		c.enqueue(wire.Frame{Type: MsgOpenOK, Flow: flow}, 0)
		return
	}
	c.mu.Unlock()

	ok, code := c.srv.tryAddFlow()
	if !ok {
		switch code {
		case CodeBusy:
			c.srv.m.flowsShed.Inc()
			c.enqueue(wire.Frame{Type: MsgOpenErr, Flow: flow,
				Payload: appendOpenErr(nil, CodeBusy, "flow limit reached")}, 0)
		case CodeDraining:
			c.srv.m.flowsRefused.Inc()
			c.enqueue(wire.Frame{Type: MsgOpenErr, Flow: flow,
				Payload: appendOpenErr(nil, CodeDraining, "server draining")}, 0)
		}
		return
	}

	sess := newSession(c, flow)
	c.mu.Lock()
	if c.sessions[flow] != nil {
		// Lost the race against a duplicate open.
		c.mu.Unlock()
		c.srv.flowClosed()
		c.srv.m.flowsReopened.Inc()
		c.enqueue(wire.Frame{Type: MsgOpenOK, Flow: flow}, 0)
		return
	}
	c.sessions[flow] = sess
	c.mu.Unlock()

	c.srv.m.flowsOpened.Inc()
	c.srv.wg.Add(1)
	c.wg.Add(1)
	go sess.run()
	c.enqueue(wire.Frame{Type: MsgOpenOK, Flow: flow}, 0)
}

// removeSession unregisters a finished session; during a drain, the last
// session out flushes the connection so queued frames still reach the peer.
func (c *serverConn) removeSession(flow uint32) {
	c.mu.Lock()
	delete(c.sessions, flow)
	idle := len(c.sessions) == 0
	c.mu.Unlock()
	c.srv.flowClosed()
	if idle {
		c.srv.mu.Lock()
		draining := c.srv.draining
		c.srv.mu.Unlock()
		if draining {
			c.flush()
		}
	}
}
