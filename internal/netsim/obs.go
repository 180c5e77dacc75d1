package netsim

import (
	"fmt"

	"ppr/internal/core/pparq"
	"ppr/internal/obs"
)

// netsimMetrics holds the engine's registry handles, resolved once per run
// in RunContext. A nil *netsimMetrics means metrics are disabled; shards
// then carry zero-valued shardObs whose nil cells make every instrumented
// site a nil check (see TestMetricsDisabledAllocs).
//
// Metrics are purely observational: they never read into a simulation
// decision, so Results are bit-identical with the registry enabled,
// disabled, or mid-run.
type netsimMetrics struct {
	// Engine mechanics.
	events  *obs.Counter // netsim.events: events popped across all shards
	commits *obs.Counter // netsim.commits: transmissions committed to the timeline
	// CSMA outcomes at well-behaved transmitters.
	csBusy *obs.Counter // netsim.cs_busy: carrier sensed busy → backoff
	csIdle *obs.Counter // netsim.cs_idle: carrier sensed idle → transmit
	// collisions counts commits that overlapped an already-active audible
	// transmission in the same domain — the retrospective "did we step on
	// someone" view carrier sense exists to minimize.
	collisions *obs.Counter // netsim.collisions
	jams       *obs.Counter // netsim.jam_frames
	jamChips   *obs.Counter // netsim.jam_chips: jam airtime — the network's jam exposure
	// Delivery outcomes at receivers.
	rxOK   *obs.Counter // netsim.receptions: frames acquired (header verified)
	rxLost *obs.Counter // netsim.losses: frames synthesized but not acquired
	// Flow/link-layer accounting, mirrored from LinkStats per transfer.
	transfers   *obs.Counter // netsim.transfers
	failures    *obs.Counter // netsim.failures
	delivered   *obs.Counter // netsim.delivered_bytes (verified app bytes)
	dataAir     *obs.Counter // netsim.data_air_bytes
	retxAir     *obs.Counter // netsim.retx_air_bytes
	fbAir       *obs.Counter // netsim.feedback_air_bytes
	fullResends *obs.Counter // netsim.full_resends
	// Queue shape.
	queuePeak    *obs.Gauge     // netsim.queue_peak: event-queue high-water mark
	domainEvents *obs.Histogram // netsim.domain_events: events per domain shard
	// flowDelivered breaks delivered bytes out per flow, indexed by the
	// flow's global id.
	flowDelivered []*obs.Counter
}

// newNetsimMetrics resolves the run's handles, or nil when disabled.
func newNetsimMetrics(flows []flowSpec) *netsimMetrics {
	r := obs.Default()
	if r == nil {
		return nil
	}
	m := &netsimMetrics{
		events:       r.Counter("netsim.events"),
		commits:      r.Counter("netsim.commits"),
		csBusy:       r.Counter("netsim.cs_busy"),
		csIdle:       r.Counter("netsim.cs_idle"),
		collisions:   r.Counter("netsim.collisions"),
		jams:         r.Counter("netsim.jam_frames"),
		jamChips:     r.Counter("netsim.jam_chips"),
		rxOK:         r.Counter("netsim.receptions"),
		rxLost:       r.Counter("netsim.losses"),
		transfers:    r.Counter("netsim.transfers"),
		failures:     r.Counter("netsim.failures"),
		delivered:    r.Counter("netsim.delivered_bytes"),
		dataAir:      r.Counter("netsim.data_air_bytes"),
		retxAir:      r.Counter("netsim.retx_air_bytes"),
		fbAir:        r.Counter("netsim.feedback_air_bytes"),
		fullResends:  r.Counter("netsim.full_resends"),
		queuePeak:    r.Gauge("netsim.queue_peak"),
		domainEvents: r.Histogram("netsim.domain_events"),
	}
	m.flowDelivered = make([]*obs.Counter, len(flows))
	for _, f := range flows {
		m.flowDelivered[f.id] = r.Counter(
			fmt.Sprintf("netsim.flow.s%d_r%d.delivered_bytes", f.src, f.dst))
	}
	return m
}

// shardObs is one shard's pre-resolved view of the run metrics: one cell per
// counter, picked by shard index, so the event loop does plain atomic adds
// with no map lookups and no sharding arithmetic. The zero value (all nil
// cells) is the disabled instrumentation, costing a nil check per site.
type shardObs struct {
	events     *obs.CounterCell
	commits    *obs.CounterCell
	csBusy     *obs.CounterCell
	csIdle     *obs.CounterCell
	collisions *obs.CounterCell
	jams       *obs.CounterCell
	jamChips   *obs.CounterCell
	rxOK       *obs.CounterCell
	rxLost     *obs.CounterCell

	transfers   *obs.CounterCell
	failures    *obs.CounterCell
	delivered   *obs.CounterCell
	dataAir     *obs.CounterCell
	retxAir     *obs.CounterCell
	fbAir       *obs.CounterCell
	fullResends *obs.CounterCell

	queuePeak    *obs.GaugeCell
	domainEvents *obs.HistCell

	// Plain locals flushed at end of run (exactly one goroutine runs a
	// shard at any instant, so no atomics needed until the flush):
	localEvents int64
	maxQueue    int
}

// shardObsFor resolves a shard's cells; idx is the shard's creation index.
func shardObsFor(m *netsimMetrics, idx int) shardObs {
	if m == nil {
		return shardObs{}
	}
	return shardObs{
		events:       m.events.Cell(idx),
		commits:      m.commits.Cell(idx),
		csBusy:       m.csBusy.Cell(idx),
		csIdle:       m.csIdle.Cell(idx),
		collisions:   m.collisions.Cell(idx),
		jams:         m.jams.Cell(idx),
		jamChips:     m.jamChips.Cell(idx),
		rxOK:         m.rxOK.Cell(idx),
		rxLost:       m.rxLost.Cell(idx),
		transfers:    m.transfers.Cell(idx),
		failures:     m.failures.Cell(idx),
		delivered:    m.delivered.Cell(idx),
		dataAir:      m.dataAir.Cell(idx),
		retxAir:      m.retxAir.Cell(idx),
		fbAir:        m.fbAir.Cell(idx),
		fullResends:  m.fullResends.Cell(idx),
		queuePeak:    m.queuePeak.Cell(idx),
		domainEvents: m.domainEvents.Cell(idx),
	}
}

// recordTransfer flushes one completed transfer's LinkStats into the shard's
// cells. Called from the flow coroutine, which runs exclusively while its
// shard's event loop is blocked on it.
func (o *shardObs) recordTransfer(m *netsimMetrics, fl *flowProc, delivered int, st pparq.Stats, failed bool) {
	if o.transfers == nil {
		return
	}
	o.transfers.Inc()
	if failed {
		o.failures.Inc()
	}
	o.delivered.Add(int64(delivered))
	o.dataAir.Add(int64(st.DataAirBytes))
	o.retxAir.Add(int64(st.RetxAirBytes))
	o.fbAir.Add(int64(st.FeedbackAirBytes))
	o.fullResends.Add(int64(st.FullResends))
	if m != nil && fl.spec.id < len(m.flowDelivered) {
		// One writer per flow counter (its own coroutine), so the default
		// cell needs no sharding.
		m.flowDelivered[fl.spec.id].Add(int64(delivered))
	}
}

// finish flushes the shard-local aggregates at the end of the event loop.
func (o *shardObs) finish() {
	if o.queuePeak != nil {
		o.queuePeak.Max(int64(o.maxQueue))
	}
	o.domainEvents.Observe(o.localEvents)
}

// lane returns the node's domain timeline lane, or nil when tracing is off.
func (s *shard) lane(node int) *obs.TraceLane {
	if s.rs.lanes == nil {
		return nil
	}
	return s.rs.lanes[s.rs.domainOf[node]]
}
