package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"ppr/internal/frame"
	"ppr/internal/linkserv"
	"ppr/internal/stats"
)

// Transfer mix of one flow cycle. Where the repository has a figure for a
// value, the mix reuses it; the rest are the benchmark's own choices, not
// measured traffic:
//   - smallBytes is pprd -drive's default payload, also BenchmarkLinkFlows'
//     one transfer per flow: small enough that per-message cost (wire
//     codec, session hand-offs, scheduler wake-ups) dominates.
//   - frame.MaxPayload (1500 B) is the paper's packet size.
//   - burstProb and burstMeanBytes are pprlink's default collision bursts,
//     with pprlink's burst length and placement distributions and its
//     reverse direction at prob/4 and mean/2.
//   - the transfer count per flow, bigShare and impairedShare are chosen
//     here: several transfers per open/close, a minority of full-size
//     frames, and a minority of flows on the bursty channel.
const (
	minTransfers   = 4    // transfers per flow: minTransfers + Intn(spanTransfers)
	spanTransfers  = 9    //
	smallBytes     = 256  // pprd -drive -size default
	bigShare       = 0.15 // share of transfers carrying a full 1500-byte payload
	impairedShare  = 0.25 // share of flows on the bursty channel
	burstProb      = 0.5  // pprlink -burst default
	burstMeanBytes = 80.0 // pprlink -meanburst default (exponential, plus 4 bytes)
	// gainFlows is how many flows per connection pp_gain is taken over:
	// a fixed prefix, so the figure does not depend on how many flows a
	// noisy host completes in the timed phase.
	gainFlows = 256
	// warmFlows is how many flow cycles each connection runs in set-up.
	warmFlows = 32
	// warmKey separates set-up flows' mix from the timed phase's.
	warmKey = 1 << 32
)

// serve is the pprd workload: an in-process linkserv.Server on a loopback
// TCP listener, conns client connections, and one goroutine per connection
// driving flow cycles in a closed loop (each radio head waits for its
// transfer's reply). One op is one transfer whose delivered payload was
// verified byte for byte; one request (the transfer_* latency) is one
// Flow.Transfer call.
type serve struct {
	seed  uint64
	conns int

	srv     *linkserv.Server
	served  chan error
	clients []*linkserv.Client
	heads   []*radioHead
	cycles  []int // next timed flow cycle, per connection

	gain gainAir // over each connection's first gainFlows flows
}

// radioHead is one connection's simulated channel. Its randomness is keyed
// on (seed, connection, flow, direction, per-flow frame index), so every
// frame's impairment is fixed by the inputs alone, whatever the goroutine
// interleaving. A connection drives one flow at a time from one goroutine,
// which is also the goroutine linkserv calls Impair from; the mutex only
// guards against a future change to either.
type radioHead struct {
	root *stats.RNG
	conn uint64

	mu       sync.Mutex
	impaired bool
	frames   map[uint32]*[2]uint64
}

func (h *radioHead) startFlow(impaired bool) {
	h.mu.Lock()
	h.impaired = impaired
	clear(h.frames)
	h.mu.Unlock()
}

func (h *radioHead) impair(dir byte, flow uint32, chips *frame.ChipBuffer) {
	h.mu.Lock()
	if !h.impaired {
		h.mu.Unlock()
		return
	}
	idx := h.frames[flow]
	if idx == nil {
		idx = new([2]uint64)
		h.frames[flow] = idx
	}
	n := idx[dir&1]
	idx[dir&1]++
	h.mu.Unlock()

	rng := h.root.Derive(h.conn, uint64(flow), uint64(dir), n)
	prob, mean := burstProb, burstMeanBytes
	if dir != linkserv.DirForward {
		prob, mean = prob/4, mean/2
	}
	if !rng.Bool(prob) {
		return
	}
	start := rng.Intn(chips.Len())
	end := min(start+(int(rng.ExpFloat64()*mean)+4)*frame.ChipsPerByte, chips.Len())
	chips.FillUniform(start, end, rng.Uint64)
}

// setup listens on an ephemeral loopback port, dials the connections and
// runs warmFlows flow cycles on each.
func (s *serve) setup() error {
	s.close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("serve: listen: %w", err)
	}
	s.srv = linkserv.NewServer(linkserv.Config{})
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(l) }()
	root := stats.NewRNG(s.seed)
	for i := 0; i < s.conns; i++ {
		h := &radioHead{root: root, conn: uint64(i), frames: map[uint32]*[2]uint64{}}
		c, err := linkserv.Dial(l.Addr().String(), linkserv.ClientConfig{Impair: h.impair})
		if err != nil {
			return fmt.Errorf("serve: dial: %w", err)
		}
		s.clients = append(s.clients, c)
		s.heads = append(s.heads, h)
	}
	s.cycles = make([]int, s.conns)
	var wg sync.WaitGroup
	errs := make([]error, s.conns)
	for i := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := 0; c < warmFlows && errs[i] == nil; c++ {
				errs[i] = s.flowCycle(i, warmKey+uint64(c), nil, &flowOps{}, nil)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// flowOps counts the transfers of one or more flow cycles.
type flowOps struct {
	attempted, ok int
	latencies     []float64
}

// gainAir accumulates pp_gain's air bytes.
type gainAir struct {
	full, pp int
}

// flowCycle opens a flow, runs its seeded transfer mix, verifies every
// delivered payload, and closes it. A transfer error or a payload mismatch
// fails that op; only a failure to open or close is returned as an error.
func (s *serve) flowCycle(conn int, key uint64, ln *lane, t *flowOps, gain *gainAir) error {
	rng := stats.NewRNG(s.seed).Derive(uint64(conn), key)
	n := minTransfers + rng.Intn(spanTransfers)
	s.heads[conn].startFlow(rng.Bool(impairedShare))

	end := ln.begin("linkserv.open")
	f, err := s.clients[conn].Open()
	end()
	if err != nil {
		return fmt.Errorf("serve: open: %w", err)
	}
	for i := 0; i < n; i++ {
		size := smallBytes
		if rng.Bool(bigShare) {
			size = frame.MaxPayload
		}
		payload := make([]byte, size)
		for j := range payload {
			payload[j] = byte(rng.Uint64())
		}
		t.attempted++
		end := ln.begin("linkserv.transfer")
		t0 := time.Now()
		got, st, err := f.Transfer(payload)
		t.latencies = append(t.latencies, float64(time.Since(t0).Nanoseconds())/1e6)
		end()
		if err != nil || !bytes.Equal(got, payload) {
			fmt.Fprintf(os.Stderr, "perfbench: serve conn %d transfer %d (%d B): err=%v match=%v\n",
				conn, i, size, err, bytes.Equal(got, payload))
			continue
		}
		t.ok++
		if gain != nil {
			// What whole-frame retransmission would have spent for the
			// same repair rounds, against what PP-ARQ spent.
			gain.full += st.DataAirBytes + len(st.RetxPayloadSizes)*frame.AirBytes(size) + st.FeedbackAirBytes
			gain.pp += st.TotalAirBytes()
		}
	}
	end = ln.begin("linkserv.close")
	err = f.Close()
	end()
	if err != nil {
		return fmt.Errorf("serve: close: %w", err)
	}
	return nil
}

// serveWindow is the length of one window of the serve loop.
const serveWindow = time.Second

// run drives the closed loop in windows of serveWindow, probing the host
// after each while the connections are idle. It runs past the deadline only
// until every connection has finished its first gainFlows flows.
func (s *serve) run(deadline time.Time, sp *spans, sm *speedometer) (tally, error) {
	var t tally
	lanes := make([]*lane, len(s.clients))
	for i := range lanes {
		lanes[i] = sp.lane()
	}
	for {
		now := time.Now()
		if !now.Before(deadline) && s.gainDone() {
			return t, nil
		}
		end := now.Add(serveWindow)
		if end.After(deadline) && now.Before(deadline) {
			end = deadline
		}
		wc := startWindow()
		ops, err := s.runWindow(end, lanes)
		t.attempted += ops.attempted
		t.ok += ops.ok
		t.windows = append(t.windows, wc.end(ops.ok, ops.latencies))
		sm.probe()
		if err != nil {
			return t, err
		}
	}
}

func (s *serve) gainDone() bool {
	for _, c := range s.cycles {
		if c < gainFlows {
			return false
		}
	}
	return true
}

// runWindow runs flow cycles on every connection until end, then waits for
// the cycles in flight.
func (s *serve) runWindow(end time.Time, lanes []*lane) (flowOps, error) {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		total flowOps
		errs  error
	)
	for i := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var (
				ops  flowOps
				gain gainAir
				err  error
			)
			for ; err == nil && time.Now().Before(end); s.cycles[i]++ {
				c := s.cycles[i]
				var g *gainAir
				if c < gainFlows {
					g = &gain
				}
				err = s.flowCycle(i, uint64(c), lanes[i], &ops, g)
			}
			mu.Lock()
			defer mu.Unlock()
			total.attempted += ops.attempted
			total.ok += ops.ok
			total.latencies = append(total.latencies, ops.latencies...)
			s.gain.full += gain.full
			s.gain.pp += gain.pp
			errs = errors.Join(errs, err)
		}()
	}
	wg.Wait()
	return total, errs
}

func (s *serve) check() (int, error) { return 0, nil }

func (s *serve) endToEnd(m metrics) {
	g := 0.0
	if s.gain.pp > 0 {
		g = float64(s.gain.full) / float64(s.gain.pp)
	}
	m.set("pp_gain", g, "x", fmt.Sprintf("whole-frame retransmission air / PP-ARQ air over %d flows per connection", gainFlows))
}

// close shuts the server down and waits for every goroutine it and the
// clients started.
func (s *serve) close() {
	for _, c := range s.clients {
		c.Close()
	}
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = s.srv.Shutdown(ctx) // forced teardown on expiry still waits for every goroutine
		cancel()
		<-s.served
	}
	s.srv, s.clients, s.heads = nil, nil, nil
}
