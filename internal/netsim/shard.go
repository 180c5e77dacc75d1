package netsim

import (
	"context"
	"fmt"

	"ppr/internal/bitutil"
	"ppr/internal/frame"
	"ppr/internal/jam"
	"ppr/internal/mac"
	"ppr/internal/phy"
	"ppr/internal/radio"
	"ppr/internal/scenario"
	"ppr/internal/stats"
)

// event kinds, in tie-break order: at equal times, deliveries resolve before
// new transmissions start (a frame beginning exactly at another's end does
// not overlap it).
const (
	evDeliver int8 = iota
	evTx
	evJam
)

// event is one scheduled engine step. Events are plain values on the heap's
// backing slice — no per-event allocation — and reference their flow,
// jammer and committed transmission by shard-local index.
type event struct {
	t    int64
	seq  int64 // FIFO tie-break within (t, kind); assigned at push
	kind int8
	try  int16 // CSMA defer count (evTx, evJam)
	fl   int32 // shard-local flow index (evTx, evDeliver)
	jam  int32 // shard-local jammer index (evJam)
	tx   int32 // committed transmission index (evDeliver)
}

// before is the event-queue ordering: time, then kind, then FIFO.
func (a event) before(b event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.seq < b.seq
}

// activeTx tracks one committed transmission's expiry for the interference
// accumulator, drained in (end, commit index) order. The deterministic
// drain order — not just the set drained — is what keeps the accumulator's
// float operation sequence, and hence every carrier-sense decision,
// bit-identical between sharded and single-queue runs.
type activeTx struct {
	end int64
	idx int32
}

func (a activeTx) before(b activeTx) bool {
	if a.end != b.end {
		return a.end < b.end
	}
	return a.idx < b.idx
}

// heapPush inserts v into the value-typed binary min-heap *h. Together with
// heapPop it replaces container/heap, whose interface{} boxing allocated
// one event per push on the engine's hottest queue.
func heapPush[T interface{ before(T) bool }](h *[]T, v T) {
	q := append(*h, v)
	*h = q
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q[i].before(q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

// heapPop removes and returns the minimum of the value-typed heap *h.
func heapPop[T interface{ before(T) bool }](h *[]T) T {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	*h = q
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && q[r].before(q[l]) {
			c = r
		}
		if !q[c].before(q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	return top
}

// airTx is one committed transmission on the shared timeline. chips is
// released once the prune frontier passes the transmission (length carries
// the duration from then on), so a run's memory does not grow with
// simulated airtime.
type airTx struct {
	node   int // global node ID
	ch     uint8
	start  int64
	length int64 // airtime in chips
	chips  *bitutil.ChipWords
}

func (t *airTx) end() int64 { return t.start + t.length }

// txRequest is what a yielded flow asks the engine to do next.
type txRequest struct {
	from, to int // global node IDs
	ch       uint8
	frame    frame.Frame
}

// flowMsg is a coroutine yield: either the flow's next transmit request or
// its completion.
type flowMsg struct {
	fl   *flowProc
	done bool
}

// flowProc is one flow coroutine and its engine-side state.
type flowProc struct {
	spec    flowSpec
	idx     int32 // shard-local index
	sh      *shard
	ll      LinkLayer
	resume  chan *frame.Reception
	now     int64 // the flow's local clock
	req     txRequest
	res     FlowResult
	payload []byte // per-transfer buffer, refilled in place
}

// engineLink adapts one direction of a flow's hop to pparq.Link: Transmit
// yields the frame to the engine and blocks until the engine has carried it
// across the shared channel.
type engineLink struct {
	fl       *flowProc
	from, to int
	ch       uint8
}

// Transmit implements pparq.Link (the Link type every LinkLayer builds on).
func (l *engineLink) Transmit(f frame.Frame) *frame.Reception {
	l.fl.req = txRequest{from: l.from, to: l.to, ch: l.ch, frame: f}
	l.fl.sh.msgs <- flowMsg{fl: l.fl}
	return <-l.fl.resume
}

// ChannelSetter is the retuning seam countermeasure link layers use: both
// engine links a Maker receives implement it, so a layer can hop a flow's
// hop (data and feedback direction alike) to another channel between
// transmissions. Channels wrap modulo the deployment's channel count.
type ChannelSetter interface {
	SetChannel(ch int)
}

// SetChannel implements ChannelSetter. It is called from the flow's own
// coroutine, which runs exclusively while its shard's event loop is blocked,
// so no synchronization is needed.
func (l *engineLink) SetChannel(ch int) {
	nCh := l.fl.sh.rs.nCh
	ch %= nCh
	if ch < 0 {
		ch += nCh
	}
	l.ch = uint8(ch)
}

// jamProc is one jammer event source: a strategy emitter.
type jamProc struct {
	spec     jamSpec
	idx      int32 // shard-local index
	em       jam.Emitter
	spanName string
	rng      *stats.RNG
	seq      uint16
	buf      []byte // burst payload buffer, refilled in place
}

// busyParityCheck, when set by a test, receives every carrier-sense query's
// incremental-accumulator and brute-force busy power (noise included, mW)
// so the satellite O(1) accumulator can be checked against the sum it
// replaced across an entire run.
var busyParityCheck func(accMW, bruteMW float64)

// shard is the discrete-event core of one interference domain (or, under
// singleQueue, of the whole deployment). It owns its event queue, committed
// timeline, receiver pipeline and coroutines; all cross-shard state lives
// in runState at indices no other shard touches.
type shard struct {
	rs     *runState
	flows  []*flowProc
	jams   []*jamProc
	queue  []event
	seq    int64
	msgs   chan flowMsg
	txs    []airTx // committed transmissions, nondecreasing start
	prune  int     // txs[:prune] can no longer overlap the current time
	maxAir int64   // longest committed transmission, for pruning
	active []activeTx
	rx     *frame.Receiver
	live   int

	txChips   int64
	jamChips  int64
	jamFrames int

	// obs holds the shard's pre-resolved metric cells; the zero value (all
	// nil cells) is the disabled path — a nil check per site, 0 allocs.
	obs shardObs

	overlaps []radio.Overlap // receive() scratch, reused across windows
	synth    radio.Scratch   // receive()'s synthesis window, reused likewise

	// Jammer observation scratch, reused across polls (the Observation
	// contract says so); obsBusy is sized to the channel count when the
	// first jammer binds.
	obsBusy []float64
	obsTxs  []jam.ActiveTx

	// cancelled flips once the run's context is done: the event loop stops
	// committing work and drains every flow coroutine instead.
	cancelled bool
}

func newShard(rs *runState, idx int) *shard {
	return &shard{
		rs:   rs,
		msgs: make(chan flowMsg),
		rx:   frame.NewReceiver(phy.HardDecoder{}),
		obs:  shardObsFor(rs.m, idx),
	}
}

// addFlow binds one flow coroutine (not yet started) to the shard.
func (s *shard) addFlow(spec flowSpec, maker Maker) {
	fl := &flowProc{
		spec:   spec,
		idx:    int32(len(s.flows)),
		sh:     s,
		resume: make(chan *frame.Reception),
		res:    FlowResult{Flow: Flow{Sender: spec.src, Receiver: spec.dst}},
	}
	src, dst := uint16(spec.src), uint16(spec.dst)
	fwd := &engineLink{fl: fl, from: spec.src, to: spec.dst}
	rev := &engineLink{fl: fl, from: spec.dst, to: spec.src}
	fl.ll = maker(fwd, rev, src, dst, layerConfig(s.rs.cfg))
	s.flows = append(s.flows, fl)
}

// addJam binds one jammer event source to the shard. The emitter's RNG is
// split from a per-node derived stream, so a jammer's timeline does not
// depend on which shard runs it.
func (s *shard) addJam(spec jamSpec) {
	p := jam.Params{
		DurationChips: s.rs.endChip,
		BurstBytes:    spec.spec.BurstBytes,
		ThresholdMW:   s.rs.csma.ThresholdMW,
		NoiseMW:       s.rs.noiseMW,
		NumChannels:   s.rs.nCh,
	}
	if pos, ok := s.rs.top.(interface{ Position(int) radio.Position }); ok {
		pt := pos.Position(spec.node)
		p.X, p.Y, p.HasPos = pt.X, pt.Y, true
	}
	rng := s.rs.base.Derive(uint64(spec.node), tagJammer)
	s.jams = append(s.jams, &jamProc{
		spec:     spec,
		idx:      int32(len(s.jams)),
		em:       spec.spec.Strategy.Emitter(p, rng.Split()),
		spanName: "jam " + spec.spec.Strategy.Name(),
		rng:      rng,
		buf:      make([]byte, spec.spec.BurstBytes),
	})
	if s.obsBusy == nil {
		s.obsBusy = make([]float64, s.rs.nCh)
	}
}

// run executes the shard's event loop to completion: start each flow
// coroutine in turn (waiting for its first yield so startup order is
// deterministic), seed the jammers, then drain the queue.
func (s *shard) run(ctx context.Context) error {
	for _, fl := range s.flows {
		s.live++
		go fl.main()
		if !s.handleMsg(<-s.msgs) {
			s.live--
		}
	}
	for _, jp := range s.jams {
		s.scheduleJam(jp)
	}

	done := ctx.Done()
	for len(s.queue) > 0 {
		if !s.cancelled && done != nil {
			select {
			case <-done:
				s.cancelled = true
			default:
			}
		}
		ev := heapPop(&s.queue)
		s.obs.events.Inc()
		s.obs.localEvents++
		if s.cancelled {
			switch ev.kind {
			case evTx, evDeliver:
				s.abortFlow(s.flows[ev.fl])
			case evJam:
				// Dropped: jammers are pure event sources, nothing to drain.
			}
			continue
		}
		switch ev.kind {
		case evTx:
			s.processTx(ev)
		case evDeliver:
			s.processDeliver(ev)
		case evJam:
			s.processJam(ev)
		}
	}
	if s.live != 0 {
		panic(fmt.Sprintf("netsim: event queue drained with %d flows still live", s.live))
	}
	s.obs.finish()
	if s.cancelled {
		return ctx.Err()
	}
	return nil
}

// push enqueues an event, stamping the FIFO tie-break sequence.
func (s *shard) push(ev event) {
	ev.seq = s.seq
	s.seq++
	heapPush(&s.queue, ev)
	if len(s.queue) > s.obs.maxQueue {
		s.obs.maxQueue = len(s.queue)
	}
}

// handleMsg absorbs one coroutine yield, enqueueing the flow's transmit
// request. It returns false when the flow announced completion.
func (s *shard) handleMsg(m flowMsg) bool {
	if m.done {
		return false
	}
	s.push(event{t: m.fl.now, kind: evTx, fl: m.fl.idx, jam: -1, tx: -1})
	return true
}

// abortFlow winds one flow down after cancellation: the coroutine is
// blocked in Transmit (evTx: nothing committed yet; evDeliver: the frame is
// on the timeline but synthesis is skipped), so resume it with a nil
// reception and a clock past the end of the run. Its link layer treats the
// nil as a loss and fails the transfer after its bounded attempts — each
// retry is one more event through this same path — and the main loop then
// sees the clock expired and exits. No flow goroutine outlives RunContext.
func (s *shard) abortFlow(fl *flowProc) {
	if fl.now < s.rs.endChip {
		fl.now = s.rs.endChip
	}
	fl.resume <- nil
	if !s.handleMsg(<-s.msgs) {
		s.live--
	}
}

// scheduleJam enqueues a jammer's next poll, dropping instants past the end
// of the run. The emitter advances its stream here even when the resulting
// event is later absorbed, so the jammer's RNG consumption is a pure
// function of time.
func (s *shard) scheduleJam(jp *jamProc) {
	t := jp.em.NextPoll()
	if t >= s.rs.endChip {
		return
	}
	s.push(event{t: t, kind: evJam, fl: -1, jam: jp.idx, tx: -1})
}

// drainExpired retires every transmission that has ended by time t from the
// interference accumulator, in (end, commit) order. Where a node's
// contributor count hits zero its accumulator is pinned to exactly 0.0, so
// float cancellation error cannot accumulate across an idle channel — and
// does so identically whatever partitioning ran the node's domain.
func (s *shard) drainExpired(t int64) {
	rs := s.rs
	for len(s.active) > 0 && s.active[0].end <= t {
		at := heapPop(&s.active)
		tx := &s.txs[at.idx]
		u := tx.node
		base := int(tx.ch) * rs.nn
		nbrs := rs.heardBy[u]
		pws := rs.heardByPw[u]
		for i, v := range nbrs {
			rs.contrib[base+int(v)]--
			if rs.contrib[base+int(v)] == 0 {
				rs.busyAcc[base+int(v)] = 0
			} else {
				rs.busyAcc[base+int(v)] -= pws[i]
			}
		}
	}
}

// busyMW returns the total received power (noise included) at a node from
// every audible committed transmission active at time t, excluding the
// node's own. It reads the per-node accumulator maintained by commit and
// drainExpired — O(expired) amortized instead of the former
// O(active transmissions) scan per query.
func (s *shard) busyMW(node int, ch uint8, t int64) float64 {
	s.drainExpired(t)
	total := s.rs.noiseMW + s.rs.busyAcc[int(ch)*s.rs.nn+node]
	if busyParityCheck != nil {
		busyParityCheck(total, s.bruteBusyMW(node, ch, t))
	}
	return total
}

// bruteBusyMW is the replaced O(active) scan, kept as the parity reference
// for busyParityCheck.
func (s *shard) bruteBusyMW(node int, ch uint8, t int64) float64 {
	total := s.rs.noiseMW
	hears := s.rs.hearsPw[node]
	for i := s.prune; i < len(s.txs); i++ {
		tx := &s.txs[i]
		if tx.start > t {
			break
		}
		if tx.end() <= t || tx.node == node || tx.ch != ch {
			continue
		}
		if p, ok := hears[int32(tx.node)]; ok {
			total += p
		}
	}
	return total
}

// advancePrune moves the pruning frontier. Queries are issued at
// nondecreasing event times, and the widest look-back any query performs is
// a delivery's synthesis window — at most maxAir+margin chips before now —
// so a transmission whose end (bounded by start+maxAir) precedes that
// horizon can never be consulted again.
func (s *shard) advancePrune(now int64) {
	for s.prune < len(s.txs) && s.txs[s.prune].start+s.maxAir < now-s.maxAir-windowMarginChips {
		s.txs[s.prune].chips = nil // never consulted again; release the buffer
		s.prune++
	}
}

// processTx handles a flow's transmit request: radio availability, carrier
// sense, then commit + delivery scheduling.
func (s *shard) processTx(ev event) {
	fl := s.flows[ev.fl]
	t := ev.t
	s.advancePrune(t)
	// One radio per node: wait out the node's own in-flight transmission
	// (several flows can share a receiver node, whose feedback frames queue).
	if free := s.rs.nodeFree[fl.req.from]; free > t {
		s.push(event{t: free, kind: evTx, fl: ev.fl, try: ev.try, jam: -1, tx: -1})
		return
	}
	if s.rs.csma.Enabled && int(ev.try) < s.rs.csma.MaxDefers {
		if s.busyMW(fl.req.from, fl.req.ch, t) >= s.rs.csma.ThresholdMW {
			rng := s.rs.base.Derive(uint64(fl.req.from), uint64(t), tagCSMA)
			backoff := 1 + int64(rng.Float64()*float64(s.rs.csma.MaxBackoffChips))
			s.obs.csBusy.Inc()
			if lane := s.lane(fl.req.from); lane != nil {
				lane.Span("backoff", "csma", t, backoff, nil)
			}
			s.push(event{t: t + backoff, kind: evTx, fl: ev.fl, try: ev.try + 1, jam: -1, tx: -1})
			return
		}
		s.obs.csIdle.Inc()
	}
	idx := s.commit(fl.req.from, fl.req.ch, t, fl.req.frame.AirChips())
	if lane := s.lane(fl.req.from); lane != nil {
		lane.Span(fmt.Sprintf("tx f%d %d→%d", fl.spec.id, fl.req.from, fl.req.to),
			"tx", t, s.txs[idx].length, nil)
	}
	s.push(event{t: s.txs[idx].end(), kind: evDeliver, fl: ev.fl, jam: -1, tx: int32(idx)})
}

// processJam handles a jammer poll: the strategy sees what the jammer
// senses and decides whether to burst. Jammers never back off.
func (s *shard) processJam(ev event) {
	jp := s.jams[ev.jam]
	t := ev.t
	s.advancePrune(t)
	if free := s.rs.nodeFree[jp.spec.node]; free > t {
		// The jammer's own previous burst is still on the air; this poll
		// is absorbed. scheduleJam still advances the jammer's stream, so
		// the jammer's RNG consumption does not depend on absorption.
		s.scheduleJam(jp)
		return
	}
	// The observation never draws RNG, and the emitter draws in
	// observation-independent order, so the decision is reproducible for any
	// partitioning.
	b := jp.em.Poll(s.observe(jp.spec.node, t))
	ch := uint8(int(b.Channel) % s.rs.nCh)
	burstBytes := len(jp.buf)
	if b.Bytes > 0 {
		burstBytes = b.Bytes
		if burstBytes > frame.MaxPayload {
			burstBytes = frame.MaxPayload
		}
	}
	if b.Fire {
		if burstBytes != len(jp.buf) {
			if burstBytes <= cap(jp.buf) {
				jp.buf = jp.buf[:burstBytes]
			} else {
				jp.buf = make([]byte, burstBytes)
			}
		}
		payload := jp.buf
		for i := range payload {
			payload[i] = byte(jp.rng.Intn(256))
		}
		f := frame.New(0xffff, uint16(jp.spec.node), jp.seq, payload)
		jp.seq++
		idx := s.commit(jp.spec.node, ch, t, f.AirChips())
		s.jamFrames++
		s.jamChips += s.txs[idx].length
		s.obs.jams.Inc()
		if s.obs.jamChips != nil {
			s.obs.jamChips.Add(s.txs[idx].length)
		}
		if lane := s.lane(jp.spec.node); lane != nil {
			lane.Span(jp.spanName, "jam", t, s.txs[idx].length, nil)
		}
	}
	s.scheduleJam(jp)
}

// observe builds a strategy jammer's view of the channel at time t in the
// shard's reusable scratch: per-channel busy power (noise included, own
// emissions excluded — the radio-free check already ran) and the audible
// transmissions on the air. The active heap's internal layout depends on the
// domain partitioning, so the view is insertion-sorted into (start, src)
// order before the strategy sees it — observations, like everything else,
// must not depend on how the run was sharded.
func (s *shard) observe(node int, t int64) jam.Observation {
	rs := s.rs
	s.drainExpired(t)
	for ch := 0; ch < rs.nCh; ch++ {
		s.obsBusy[ch] = rs.noiseMW + rs.busyAcc[ch*rs.nn+node]
	}
	txs := s.obsTxs[:0]
	hears := rs.hearsPw[node]
	for _, a := range s.active {
		tx := &s.txs[a.idx]
		if tx.start > t || tx.node == node {
			continue
		}
		if _, ok := hears[int32(tx.node)]; !ok {
			continue
		}
		txs = append(txs, jam.ActiveTx{Src: tx.node, Start: tx.start, End: tx.end(), Channel: tx.ch})
	}
	for i := 1; i < len(txs); i++ {
		for j := i; j > 0 && (txs[j].Start < txs[j-1].Start ||
			(txs[j].Start == txs[j-1].Start && txs[j].Src < txs[j-1].Src)); j-- {
			txs[j], txs[j-1] = txs[j-1], txs[j]
		}
	}
	s.obsTxs = txs // retain grown capacity for the next poll
	return jam.Observation{Chip: t, Busy: s.obsBusy, Txs: txs}
}

// commit places a transmission on the shared timeline and updates the
// airtime and interference accounting. Commits happen in nondecreasing
// start order because a transmission always starts at the current event
// time. The transmission's power lands on exactly its precomputed audible
// neighbors — the audibility-graph pruning: everything below the synthesis
// floor is skipped here just as synthesis itself would skip it.
func (s *shard) commit(node int, ch uint8, start int64, chips *bitutil.ChipWords) int {
	rs := s.rs
	air := int64(chips.Len())
	idx := len(s.txs)
	s.txs = append(s.txs, airTx{node: node, ch: ch, start: start, length: air, chips: chips})
	rs.nodeFree[node] = start + air
	if air > s.maxAir {
		s.maxAir = air
	}
	s.txChips += air
	base := int(ch) * rs.nn
	nbrs := rs.heardBy[node]
	pws := rs.heardByPw[node]
	for i, v := range nbrs {
		rs.busyAcc[base+int(v)] += pws[i]
		rs.contrib[base+int(v)]++
	}
	heapPush(&s.active, activeTx{end: start + air, idx: int32(idx)})
	// Union channel occupancy, accounted per domain so singleQueue and
	// sharded runs agree chip for chip.
	d := rs.domainOf[node]
	busyFrom := start
	if rs.domLast[d] > busyFrom {
		busyFrom = rs.domLast[d]
	}
	if end := start + air; end > busyFrom {
		rs.domBusy[d] += end - busyFrom
		rs.domLast[d] = end
	}
	s.obs.commits.Inc()
	if s.obs.collisions != nil {
		// Retrospective collision check: does this commit overlap any other
		// transmission still on the air? The scan is non-destructive —
		// draining s.active here would reorder the interference
		// accumulator's float operations and break the bit-identical parity
		// between sharded and single-queue runs.
		for _, a := range s.active {
			if a.idx != int32(idx) && a.end > start {
				s.obs.collisions.Inc()
				break
			}
		}
	}
	return idx
}

// processDeliver synthesizes the destination's chip stream for one
// completed transmission and resumes the waiting flow with its reception.
// Every transmission overlapping this one is already committed: it must
// start before this one's end, and all earlier events have been processed.
func (s *shard) processDeliver(ev event) {
	fl := s.flows[ev.fl]
	tx := &s.txs[ev.tx]
	rec := s.receive(tx, fl.req.to, fl.req.frame)
	if rec != nil {
		s.obs.rxOK.Inc()
	} else {
		s.obs.rxLost.Inc()
	}
	if lane := s.lane(fl.req.to); lane != nil {
		if rec != nil {
			lane.Instant(fmt.Sprintf("rx ok f%d @%d", fl.spec.id, fl.req.to), "rx", tx.end(), nil)
		} else {
			lane.Instant(fmt.Sprintf("rx lost f%d @%d", fl.spec.id, fl.req.to), "rx", tx.end(), nil)
		}
	}
	// The node turns around before its next frame in the exchange.
	fl.now = tx.end() + mac.TurnaroundChips
	fl.resume <- rec
	if !s.handleMsg(<-s.msgs) {
		s.live--
	}
}

// receive runs the destination's receiver pipeline over the synthesis
// window of one transmission, returning the best header-verified reception
// of that frame, or nil. Interferers come from the precomputed audible set
// — the same floor cut the pre-sharding engine applied per overlap.
func (s *shard) receive(tx *airTx, to int, sent frame.Frame) *frame.Reception {
	// Half duplex: a node transmitting during any part of the frame's
	// airtime hears none of it.
	for i := s.prune; i < len(s.txs); i++ {
		other := &s.txs[i]
		if other.start >= tx.end() {
			break
		}
		if other.node == to && other.end() > tx.start {
			return nil
		}
	}
	origin := tx.start - windowMarginChips
	n := tx.chips.Len() + 2*windowMarginChips
	hears := s.rs.hearsPw[to]
	overlaps := s.overlaps[:0]
	for i := s.prune; i < len(s.txs); i++ {
		other := &s.txs[i]
		if other.start >= origin+int64(n) {
			break
		}
		// A transmission on another orthogonal channel neither interferes
		// nor delivers; half duplex above already spanned all channels.
		if other.end() <= origin || other.node == to || other.ch != tx.ch {
			continue
		}
		p, ok := hears[int32(other.node)]
		if !ok {
			continue // below the audibility floor at this receiver
		}
		overlaps = append(overlaps, radio.Overlap{
			Start:   int(other.start - origin),
			Chips:   other.chips,
			PowerMW: p,
		})
	}
	s.overlaps = overlaps // retain grown capacity for the next window
	rng := s.rs.base.Derive(uint64(to), uint64(tx.start), tagChannel)
	// The synthesizer's packed stream feeds the receiver directly — no
	// per-reception repack on the closed-loop path either. The window is
	// reused by the next receive: receptions keep decisions, not chips.
	chips := s.synth.SynthesizeFading(rng, n, overlaps, s.rs.noiseMW, radio.DefaultCoherenceChips)
	recs := s.rx.Receive(chips)
	// On a shared channel the window can contain other packets: keep only
	// receptions of the transmitted frame before picking the best.
	matched := recs[:0]
	for _, rec := range recs {
		if rec.HeaderOK && rec.Hdr.Src == sent.Hdr.Src && rec.Hdr.Seq == sent.Hdr.Seq &&
			rec.Hdr.Dst == sent.Hdr.Dst {
			matched = append(matched, rec)
		}
	}
	return frame.BestReception(matched)
}

// main is the flow coroutine body: open transfers until the clock runs out,
// driving the link layer which in turn yields every frame to the engine.
func (fl *flowProc) main() {
	rs := fl.sh.rs
	payloadRng := rs.base.Derive(uint64(fl.spec.id), tagPayload)
	var arrivals scenario.Arrivals
	if rs.cfg.Traffic != nil {
		arrivals = rs.cfg.Traffic.Arrivals(scenario.Params{
			OfferedBps:  rs.cfg.OfferedBps,
			PacketBytes: rs.cfg.PacketBytes,
		}, payloadRng.Split())
	}
	appBytes := fl.ll.AppBytesPerPacket(rs.cfg.PacketBytes)
	fl.payload = make([]byte, appBytes)
	for {
		if arrivals != nil {
			t := arrivals.Next()
			if t > fl.now {
				fl.now = t // idle until the next packet arrives
			}
		}
		if fl.now >= rs.endChip {
			break
		}
		payload := fl.payload
		for i := range payload {
			payload[i] = byte(payloadRng.Intn(256))
		}
		delivered, st, err := fl.ll.Transfer(payload)
		fl.res.Transfers++
		if err != nil {
			fl.res.Failures++
		}
		fl.res.DeliveredAppBytes += delivered
		fl.res.Air.add(st)
		fl.sh.obs.recordTransfer(rs.m, fl, delivered, st, err != nil)
	}
	fl.sh.msgs <- flowMsg{fl: fl, done: true}
}
