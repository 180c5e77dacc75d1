package linkserv

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ppr/internal/core/pparq"
	"ppr/internal/frame"
	"ppr/internal/obs"
	"ppr/internal/phy"
	"ppr/internal/wire"
)

// errFlowIdled is the internal verdict for a MsgClosed{ClosedIdle} received
// mid-transfer: the server dropped the flow as idle (our request frames
// never reached it), but the conn is alive and opens are idempotent, so the
// transfer retry loop reopens instead of failing the flow.
var errFlowIdled = errors.New("linkserv: flow idled out by server")

// ClientConfig tunes the client end: the remote radio head plus its own
// robustness knobs. The zero value is usable.
type ClientConfig struct {
	// Impair, when set, mutates each link-layer frame's chip stream before
	// it enters the receiver pipeline — the simulated channel. It is called
	// concurrently from every flow's transfer goroutine and must be safe
	// for concurrent use (key any randomness off the flow ID, or lock).
	// chips is a pooled buffer: Impair must not keep it past the call.
	Impair func(dir byte, flow uint32, chips *frame.ChipBuffer)

	// OpenTimeout bounds one open round trip. Default 5s.
	OpenTimeout time.Duration
	// RespTimeout bounds the wait for any server activity during a
	// transfer; each MsgAir served resets it. Default 10s.
	RespTimeout time.Duration
	// Retries is how many times Open and Transfer re-send their request
	// after a timeout before giving up (both are idempotent server-side).
	// Default 3.
	Retries int
	// WriteTimeout bounds each wire-frame write. Default 10s.
	WriteTimeout time.Duration
	// QueueLen bounds the outbound frame queue. Default 256.
	QueueLen int
	// BackoffBase and BackoffCap pace the retries. Defaults 10ms, 500ms.
	BackoffBase time.Duration
	BackoffCap  time.Duration

	// Metrics receives the linkserv.client.* counters; nil falls back to
	// obs.Default().
	Metrics *obs.Registry
}

func (c ClientConfig) fill() ClientConfig {
	if c.OpenTimeout == 0 {
		c.OpenTimeout = 5 * time.Second
	}
	if c.RespTimeout == 0 {
		c.RespTimeout = 10 * time.Second
	}
	if c.Retries == 0 {
		c.Retries = 3
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.QueueLen == 0 {
		c.QueueLen = 256
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = 10 * time.Millisecond
	}
	if c.BackoffCap == 0 {
		c.BackoffCap = 500 * time.Millisecond
	}
	return c
}

// flowInbox bounds each flow's message queue from the demux reader.
const flowInbox = 16

// Client is the radio-head end of a link-server connection. It demuxes
// wire frames to flows; each flow's Transfer call runs the full receiver
// pipeline over every link-layer frame the server sends it, so PHY decode
// work parallelizes across the goroutines driving the flows.
type Client struct {
	cfg ClientConfig
	m   *clientMetrics
	c   net.Conn

	out       chan wire.Frame
	closedCh  chan struct{}
	closeOnce sync.Once
	goAway    atomic.Bool

	mu       sync.Mutex
	flows    map[uint32]*Flow
	nextFlow uint32

	rxPool sync.Pool // of *radioHeadBuf
	wg     sync.WaitGroup
}

// radioHeadBuf is one handleAir call's radio head: a receiver plus the
// air-byte and chip-word buffers each frame is spread into. A call owns
// its item from Get to Put; the spread rewrites every chip word, and the
// reception is serialized before Put, so nothing outlives the item's use.
type radioHeadBuf struct {
	rx    *frame.Receiver
	air   []byte
	chips frame.ChipBuffer
}

// Dial connects to a link server over TCP.
func Dial(addr string, cfg ClientConfig) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn, cfg), nil
}

// NewClient wraps an established connection — a TCP dial or one end of a
// net.Pipe whose other end went to Server.AddConn.
func NewClient(conn net.Conn, cfg ClientConfig) *Client {
	cfg = cfg.fill()
	c := &Client{
		cfg:      cfg,
		m:        newClientMetrics(cfg.Metrics),
		c:        conn,
		out:      make(chan wire.Frame, cfg.QueueLen),
		closedCh: make(chan struct{}),
		flows:    map[uint32]*Flow{},
	}
	c.rxPool.New = func() any { return &radioHeadBuf{rx: frame.NewReceiver(phy.HardDecoder{})} }
	c.wg.Add(2)
	go c.reader()
	go c.writer()
	return c
}

// teardown closes the connection and unblocks everything. Idempotent.
func (c *Client) teardown() {
	c.closeOnce.Do(func() {
		close(c.closedCh)
		c.c.Close()
	})
}

// Close tears the connection down and waits for the client's goroutines.
// Flow calls in flight return ErrClosed.
func (c *Client) Close() error {
	c.teardown()
	c.wg.Wait()
	return nil
}

// Draining reports whether the server announced MsgGoAway.
func (c *Client) Draining() bool { return c.goAway.Load() }

// enqueue queues one outbound frame, waiting up to WriteTimeout for room.
// A queue with room takes the frame without arming a timer.
func (c *Client) enqueue(f wire.Frame) bool {
	select {
	case c.out <- f:
		return true
	case <-c.closedCh:
		return false
	default:
	}
	t := time.NewTimer(c.cfg.WriteTimeout)
	defer t.Stop()
	select {
	case c.out <- f:
		return true
	case <-c.closedCh:
		return false
	case <-t.C:
		return false
	}
}

func (c *Client) writer() {
	defer c.wg.Done()
	enc := wire.NewEncoder(c.c)
	for {
		select {
		case f := <-c.out:
			c.c.SetWriteDeadline(time.Now().Add(c.cfg.WriteTimeout))
			if err := enc.Encode(f); err != nil {
				c.teardown()
				return
			}
		case <-c.closedCh:
			return
		}
	}
}

// reader demuxes incoming wire frames to flow inboxes. It does no PHY
// work — a slow decode on one flow must not stall the others.
func (c *Client) reader() {
	defer c.wg.Done()
	dec := wire.NewDecoder(c.c)
	for {
		f, err := dec.Next()
		if err != nil {
			c.teardown()
			return
		}
		if f.Flow == 0 {
			if f.Type == MsgGoAway {
				c.goAway.Store(true)
			}
			continue
		}
		c.mu.Lock()
		fl := c.flows[f.Flow]
		c.mu.Unlock()
		if fl == nil {
			c.m.unknownFlow.Inc()
			continue
		}
		select {
		case fl.inbox <- inMsg{typ: f.Type, body: f.Payload}:
		default:
			c.m.inboxDrops.Inc()
		}
	}
}

// Flow is one open PP-ARQ flow. A Flow serializes its own calls: Transfer
// and Close may be used from any goroutine, one at a time (an internal
// mutex enforces it).
type Flow struct {
	c  *Client
	id uint32

	inbox chan inMsg

	mu      sync.Mutex // serializes Transfer/Close
	nextXid uint32
	closed  bool
	// timer bounds whichever wait the flow is in (open, transfer, close);
	// the waits are serialized, so one timer serves them all (see arm).
	timer *time.Timer
}

// Open opens a new flow, retrying lost open round trips (the server's open
// is idempotent). It fails fast with ErrDraining after a MsgGoAway and
// maps the server's refusals to ErrBusy / ErrDraining.
func (c *Client) Open() (*Flow, error) {
	if c.goAway.Load() {
		return nil, ErrDraining
	}
	c.mu.Lock()
	c.nextFlow++
	id := c.nextFlow
	f := &Flow{c: c, id: id, inbox: make(chan inMsg, flowInbox)}
	c.flows[id] = f
	c.mu.Unlock()
	c.m.opens.Inc()

	bo := newBackoff(c.cfg.BackoffBase, c.cfg.BackoffCap)
	var err error
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			c.m.retries.Inc()
			sleepOr(bo.Next(), c.closedCh)
		}
		if !c.enqueue(wire.Frame{Type: MsgOpen, Flow: id}) {
			err = ErrClosed
			break
		}
		err = f.awaitOpen()
		if err == nil {
			return f, nil
		}
		if err != ErrTimeout {
			break
		}
		c.m.timeouts.Inc()
	}
	c.dropFlow(id)
	return nil, err
}

// awaitOpen waits for the open verdict, tolerating unrelated traffic.
func (f *Flow) awaitOpen() error {
	expired := arm(&f.timer, f.c.cfg.OpenTimeout)
	defer f.timer.Stop()
	for {
		select {
		case m := <-f.inbox:
			switch m.typ {
			case MsgOpenOK:
				return nil
			case MsgOpenErr:
				code, msg, err := parseOpenErr(m.body)
				if err != nil {
					f.c.m.malformed.Inc()
					continue
				}
				switch code {
				case CodeBusy:
					return ErrBusy
				case CodeDraining:
					return ErrDraining
				default:
					return fmt.Errorf("linkserv: open refused: %s", msg)
				}
			case MsgClosed:
				// A stale close from a previous life of this flow ID.
				continue
			default:
				continue
			}
		case <-f.c.closedCh:
			return ErrClosed
		case <-expired:
			return ErrTimeout
		}
	}
}

func (c *Client) dropFlow(id uint32) {
	c.mu.Lock()
	delete(c.flows, id)
	c.mu.Unlock()
}

// Transfer delivers one payload over the flow with full PP-ARQ recovery,
// acting as the remote radio head for every link-layer frame the server's
// protocol machinery transmits. It returns the payload as the (simulated)
// receiver verified it, with the protocol's air-byte accounting.
//
// A transfer whose done frame is lost is retried under the same xid; the
// server answers duplicates from cache, so payloads never move twice. If
// the transport ate so many request frames that the server reaped the flow
// as idle, the transfer reopens it (opens are idempotent) and retries
// rather than surfacing a dead flow over a healthy conn.
func (f *Flow) Transfer(payload []byte) ([]byte, pparq.Stats, error) {
	if len(payload) == 0 || len(payload) > frame.MaxPayload {
		return nil, pparq.Stats{}, fmt.Errorf("linkserv: payload must be 1..%d bytes, got %d",
			frame.MaxPayload, len(payload))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, pparq.Stats{}, ErrClosed
	}
	f.nextXid++
	xid := f.nextXid
	f.c.m.transfers.Inc()

	// Every attempt re-sends the same request; the queued body is never
	// written to after the writer takes it.
	body := append(binaryU32(make([]byte, 0, 4+len(payload)), xid), payload...)
	bo := newBackoff(f.c.cfg.BackoffBase, f.c.cfg.BackoffCap)
	for attempt := 0; attempt <= f.c.cfg.Retries; attempt++ {
		if attempt > 0 {
			f.c.m.retries.Inc()
			sleepOr(bo.Next(), f.c.closedCh)
		}
		if !f.c.enqueue(wire.Frame{Type: MsgTransfer, Flow: f.id, Payload: body}) {
			return nil, pparq.Stats{}, ErrClosed
		}
		delivered, st, err := f.serveRadioHead(xid)
		if err == errFlowIdled {
			// The server idled the flow out because our request frames
			// were lost in transit. The conn is alive and opens are
			// idempotent, so reopen the flow and let the retry loop
			// re-send the transfer under the same xid.
			if !f.c.enqueue(wire.Frame{Type: MsgOpen, Flow: f.id}) {
				return nil, pparq.Stats{}, ErrClosed
			}
			if err = f.awaitOpen(); err == nil {
				err = ErrTimeout
			} else if err != ErrTimeout {
				f.closed = true
				f.c.dropFlow(f.id)
				return nil, pparq.Stats{}, err
			}
		}
		if err != ErrTimeout {
			return delivered, st, err
		}
		f.c.m.timeouts.Inc()
	}
	return nil, pparq.Stats{}, ErrTimeout
}

func binaryU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// serveRadioHead processes server frames for one transfer attempt: every
// MsgAir runs through the real receiver pipeline (after the optional
// channel impairment) and its best reception goes back as MsgRx, until the
// matching MsgDone arrives.
func (f *Flow) serveRadioHead(xid uint32) ([]byte, pparq.Stats, error) {
	expired := arm(&f.timer, f.c.cfg.RespTimeout)
	defer f.timer.Stop()
	for {
		select {
		case m := <-f.inbox:
			switch m.typ {
			case MsgAir:
				f.timer.Reset(f.c.cfg.RespTimeout)
				f.handleAir(m.body)
			case MsgDone:
				done, err := parseDone(m.body)
				if err != nil {
					f.c.m.malformed.Inc()
					continue
				}
				if done.Xid != xid {
					continue // replay of an earlier transfer's done
				}
				if done.Status != StatusOK {
					return nil, done.Stats, fmt.Errorf("%w: %s", ErrGiveUp, done.Err)
				}
				return done.Delivered, done.Stats, nil
			case MsgClosed:
				reason := byte(ClosedByClient)
				if len(m.body) > 0 {
					reason = m.body[0]
				}
				if reason == ClosedIdle {
					// Recoverable: the flow state is gone server-side but
					// the conn is alive. Transfer reopens and retries.
					return nil, pparq.Stats{}, errFlowIdled
				}
				f.closed = true
				f.c.dropFlow(f.id)
				if reason == ClosedDraining {
					return nil, pparq.Stats{}, ErrDraining
				}
				return nil, pparq.Stats{}, ErrClosed
			case MsgOpenOK, MsgOpenErr:
				continue // stale open verdict
			default:
				f.c.m.malformed.Inc()
			}
		case <-f.c.closedCh:
			return nil, pparq.Stats{}, ErrClosed
		case <-expired:
			return nil, pparq.Stats{}, ErrTimeout
		}
	}
}

// handleAir runs one link-layer frame through the radio head: spread into
// a pooled buffer, impaired in place, received by the pooled receiver. The
// reception is scratch-backed, so it is serialized before the item returns
// to the pool.
func (f *Flow) handleAir(body []byte) {
	m, err := parseAir(body)
	if err != nil {
		f.c.m.malformed.Inc()
		return
	}
	f.c.m.airs.Inc()
	h := f.c.rxPool.Get().(*radioHeadBuf)
	h.air = frame.New(m.Dst, m.Src, m.Seq, m.Payload).AirChipsInto(&h.chips, h.air)
	if f.c.cfg.Impair != nil {
		f.c.cfg.Impair(m.Dir, f.id, &h.chips)
	}
	rec := frame.BestReception(h.rx.Receive(&h.chips))
	resp := appendReception(nil, m.Exch, rec)
	f.c.rxPool.Put(h)
	f.c.enqueue(wire.Frame{Type: MsgRx, Flow: f.id, Payload: resp})
}

// Close closes the flow on the server and forgets it locally. Best-effort:
// a lost close round trip ends with the server idling the flow out.
func (f *Flow) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	defer f.c.dropFlow(f.id)
	if !f.c.enqueue(wire.Frame{Type: MsgClose, Flow: f.id}) {
		return ErrClosed
	}
	expired := arm(&f.timer, f.c.cfg.OpenTimeout)
	defer f.timer.Stop()
	for {
		select {
		case m := <-f.inbox:
			if m.typ == MsgClosed {
				return nil
			}
		case <-f.c.closedCh:
			return ErrClosed
		case <-expired:
			return ErrTimeout
		}
	}
}
