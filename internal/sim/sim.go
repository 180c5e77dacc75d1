// Package sim is the event-driven simulation engine that stands in for the
// paper's physical testbed runs: it drives the 23 senders' traffic sources
// and carrier-sense decisions to produce a schedule of transmissions, then
// synthesizes each receiver's chip stream — collisions, capture and noise
// included — and runs the full receiver pipeline over it, matching every
// reception back to ground truth.
//
// The output is a trace of per-(transmission, receiver) outcomes carrying
// decoded symbols, SoftPHY hints and true symbols, which the experiment
// code post-processes under each scheme (packet CRC, fragmented CRC, PPR) —
// the same trace-driven methodology the paper uses ("each node sends a
// stream of bits, which are formed into traces and post-processed",
// Sec. 7.2).
//
// Delivery is embarrassingly parallel across (receiver, window) work units:
// the chip streams different receivers observe are independent, and within
// one receiver the synthesis windows are separated by silent gaps, so
// Deliver fans the units out over a bounded worker pool. Each window draws
// its randomness from an RNG derived deterministically from (seed, receiver,
// window origin) — see stats.RNG.Derive — so results are bit-identical
// regardless of worker count or scheduling order.
//
// Traffic generation is pluggable: Config.Scenario assigns each sender a
// scenario.TrafficModel (Poisson by default, matching the paper; bursty
// on/off sources and periodic/reactive jammers ship in internal/scenario).
package sim

import (
	"context"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"ppr/internal/bitutil"
	"ppr/internal/frame"
	"ppr/internal/jam"
	"ppr/internal/mac"
	"ppr/internal/phy"
	"ppr/internal/radio"
	"ppr/internal/scenario"
	"ppr/internal/stats"
	"ppr/internal/testbed"
)

// Config describes one simulation run.
type Config struct {
	// Testbed is the deployment to run on.
	Testbed *testbed.Testbed
	// OfferedBps is the per-node offered load in bits/second.
	OfferedBps float64
	// PacketBytes is the link-layer payload size per packet.
	PacketBytes int
	// DurationSec is the simulated airtime.
	DurationSec float64
	// CarrierSense toggles the senders' CSMA discipline.
	CarrierSense bool
	// Seed fixes traffic, backoff and channel noise.
	Seed uint64
	// Scenario assigns each sender a traffic model; nil means the paper's
	// all-Poisson workload (scenario.Poisson()).
	Scenario scenario.Scenario
	// Workers bounds Deliver's parallelism; 0 means runtime.NumCPU().
	// Results do not depend on Workers.
	Workers int
}

// workers resolves the configured worker count.
func (cfg Config) workers() int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return runtime.NumCPU()
}

// scenarioOrDefault resolves the configured scenario.
func (cfg Config) scenarioOrDefault() scenario.Scenario {
	if cfg.Scenario != nil {
		return cfg.Scenario
	}
	return scenario.Poisson()
}

// Transmission is one packet on the air.
type Transmission struct {
	// ID indexes the transmission in schedule order.
	ID int
	// Src is the sender index.
	Src int
	// StartChip is the transmission's first chip time.
	StartChip int64
	// Frame is the link-layer frame sent.
	Frame frame.Frame
	// TruthSyms is the payload's true symbol sequence.
	TruthSyms []byte

	// chipsOnce guards chips: the packed on-air stream is spread once and
	// shared read-only by every (receiver, window) unit that hears the
	// transmission, however many workers process them.
	chipsOnce sync.Once
	chips     *bitutil.ChipWords
}

// ChipStream returns the transmission's packed on-air chip stream, spread
// on first use and cached (a transmission is typically audible at several
// receivers).
func (tx *Transmission) ChipStream() *bitutil.ChipWords {
	tx.chipsOnce.Do(func() { tx.chips = tx.Frame.AirChips() })
	return tx.chips
}

// AirChips returns the transmission's on-air length in chips.
func (tx *Transmission) AirChips() int { return frame.AirChips(len(tx.Frame.Payload)) }

// EndChip returns one past the transmission's last chip time.
func (tx *Transmission) EndChip() int64 { return tx.StartChip + int64(tx.AirChips()) }

// PayloadStartChip returns the absolute chip time of the first payload
// symbol, the key receptions are matched on.
func (tx *Transmission) PayloadStartChip() int64 {
	return tx.StartChip + int64((frame.SyncBytes+frame.HeaderBytes)*frame.ChipsPerByte)
}

// Schedule runs the scenario's traffic sources and the MAC to produce the
// transmission timeline. Payloads are deterministic pseudo-random test
// patterns (the paper's "known test pattern") so receivers can score
// correctness.
//
// Nodes with a jam.Strategy (scenario.Node.Jam) are adversaries on the
// shared chip-time line: their emitters are polled lazily, interleaved in
// time order with the static arrival streams, and each poll observes the
// channel as the jammer would sense it — total received power and the
// transmissions currently on the air — before deciding whether to burst.
// Jammers ignore carrier sense; every other arrival goes through CSMA. The
// stock periodic/reactive jammer schedules are pinned by frozen golden
// digests (see jam_test.go).
func Schedule(cfg Config) []*Transmission {
	rng := stats.NewRNG(cfg.Seed)
	trafficRng := rng.Split()
	csmaRng := rng.Split()
	payloadRng := rng.Split()

	tb := cfg.Testbed
	endChip := mac.ChipsPerSecond(cfg.DurationSec)
	sc := cfg.scenarioOrDefault()

	nodes := make([]scenario.Node, testbed.NumSenders)
	for i := range nodes {
		nodes[i] = sc.Node(i, testbed.NumSenders)
	}

	pktBytes := make([]int, testbed.NumSenders)
	for i, node := range nodes {
		pktBytes[i] = cfg.PacketBytes
		if node.PacketBytes > 0 {
			pktBytes[i] = node.PacketBytes
		}
	}

	csma := mac.DefaultCSMA(radio.DBmToMW(tb.Params.CSThresholdDBm))
	csma.Enabled = cfg.CarrierSense
	noiseMW := radio.DBmToMW(tb.Params.NoiseFloorDBm)
	csThresholdMW := radio.DBmToMW(tb.Params.CSThresholdDBm)

	type arrival struct {
		chip int64
		src  int
	}
	// jammer is one strategy-driven adversary's lazy poll cursor.
	type jammer struct {
		src  int
		em   jam.Emitter
		next int64
	}
	var arrivals []arrival
	var jammers []*jammer
	for i := 0; i < testbed.NumSenders; i++ {
		// Every sender consumes one trafficRng.Split() in index order,
		// strategy adversaries included, so adding a jammer never perturbs
		// the other senders' arrival streams.
		child := trafficRng.Split()
		if st := nodes[i].Jam; st != nil {
			em := st.Emitter(jam.Params{
				DurationChips: endChip,
				BurstBytes:    pktBytes[i],
				ThresholdMW:   csThresholdMW,
				NoiseMW:       noiseMW,
				NumChannels:   1,
			}, child)
			jammers = append(jammers, &jammer{src: i, em: em, next: em.NextPoll()})
			continue
		}
		src := nodes[i].Model.Arrivals(scenario.Params{
			OfferedBps:  cfg.OfferedBps,
			PacketBytes: pktBytes[i],
		}, child)
		for {
			t := src.Next()
			if t >= endChip {
				break
			}
			arrivals = append(arrivals, arrival{chip: t, src: i})
		}
	}
	sort.Slice(arrivals, func(a, b int) bool { return arrivals[a].chip < arrivals[b].chip })

	var txs []*Transmission
	seqs := make([]uint16, testbed.NumSenders)

	// busyAt is the received power at sender `at` from transmissions
	// already committed, optionally excluding its own (a node cannot sense
	// the channel through its own ongoing transmission).
	busyAt := func(t int64, at, excludeSrc int) float64 {
		total := noiseMW
		for k := len(txs) - 1; k >= 0; k-- {
			tx := txs[k]
			if tx.EndChip() <= t {
				// txs is appended in arrival order, so starts are only
				// approximately sorted (CSMA deferrals shift them).
				// Stop scanning once starts are so old that no frame —
				// even maximally deferred — could still be active.
				if t-tx.StartChip > 4*int64(frame.MaxAirChips) {
					break
				}
				continue
			}
			if tx.StartChip <= t && tx.Src != excludeSrc {
				total += radio.DBmToMW(tb.SenderGainDBm[tx.Src][at])
			}
		}
		return total
	}

	// emit commits one transmission: payload bytes come from the shared
	// payloadRng in commit order, which is what makes the schedule
	// deterministic and the parity tests bit-exact.
	emit := func(src int, start int64, bytes int) {
		payload := make([]byte, bytes)
		for bi := range payload {
			payload[bi] = byte(payloadRng.Intn(256))
		}
		// Destination: the receiver with the strongest link from this
		// sender (the routing layer would pick it).
		bestJ := tb.BestReceiver(src)
		f := frame.New(uint16(testbed.NumSenders+bestJ), uint16(src), seqs[src], payload)
		seqs[src]++
		txs = append(txs, &Transmission{
			ID:        len(txs),
			Src:       src,
			StartChip: start,
			Frame:     f,
			TruthSyms: bitutil.NibblesFromBytes(payload),
		})
	}

	// Observation scratch, reused across polls (the emitters must copy
	// anything they keep — see jam.Observation).
	obsBusy := make([]float64, 1)
	var obsTxs []jam.ActiveTx
	audFloorDBm := tb.Params.NoiseFloorDBm - interferenceFloorDB

	ai := 0
	for {
		// Earliest pending strategy poll; ties go to the lower node index.
		ji := -1
		for k, j := range jammers {
			if j.next >= endChip {
				continue
			}
			if ji < 0 || j.next < jammers[ji].next ||
				(j.next == jammers[ji].next && j.src < jammers[ji].src) {
				ji = k
			}
		}
		hasStatic := ai < len(arrivals)
		if !hasStatic && ji < 0 {
			break
		}
		// On chip ties the strategy poll goes first (the golden schedules
		// pin this order).
		if hasStatic && (ji < 0 || arrivals[ai].chip < jammers[ji].next) {
			a := arrivals[ai]
			ai++
			// Carrier sense for CSMA keeps the seed behaviour: all
			// committed transmissions count (a deferring sender is not yet
			// on the air).
			busy := func(t int64) float64 { return busyAt(t, a.src, -1) }
			emit(a.src, csma.Decide(a.chip, busy, csmaRng), pktBytes[a.src])
			continue
		}

		// Strategy poll: build the jammer's view of the channel at the
		// poll instant and let the emitter decide.
		j := jammers[ji]
		t := j.next
		obsBusy[0] = busyAt(t, j.src, j.src)
		obsTxs = obsTxs[:0]
		for k := len(txs) - 1; k >= 0; k-- {
			tx := txs[k]
			if tx.EndChip() <= t {
				if t-tx.StartChip > 4*int64(frame.MaxAirChips) {
					break
				}
				continue
			}
			if tx.StartChip <= t && tx.Src != j.src &&
				tb.SenderGainDBm[tx.Src][j.src] >= audFloorDBm {
				obsTxs = append(obsTxs, jam.ActiveTx{Src: tx.Src, Start: tx.StartChip, End: tx.EndChip()})
			}
		}
		b := j.em.Poll(jam.Observation{Chip: t, Busy: obsBusy, Txs: obsTxs})
		j.next = j.em.NextPoll()
		if b.Fire {
			bytes := pktBytes[j.src]
			if b.Bytes > 0 {
				bytes = b.Bytes
			}
			emit(j.src, t, bytes)
		}
	}
	// CSMA deferrals can reorder starts slightly; restore time order.
	sort.Slice(txs, func(a, b int) bool { return txs[a].StartChip < txs[b].StartChip })
	for i, tx := range txs {
		tx.ID = i
	}
	return txs
}

// Outcome is the receiver pipeline's result for one (transmission,
// receiver, variant) triple.
type Outcome struct {
	// TxID identifies the transmission.
	TxID int
	// Src is the sender index; Receiver the receiver index.
	Src, Receiver int
	// Variant is VariantNoPostamble or VariantPostamble.
	Variant int
	// Acquired reports whether any sync (preamble or postamble) locked and
	// produced a header-verified reception for this transmission.
	Acquired bool
	// Kind is the winning sync kind when acquired.
	Kind frame.SyncKind
	// CRCOK reports the whole-packet CRC.
	CRCOK bool
	// MissingPrefix counts undecoded leading symbols (postamble rollback).
	MissingPrefix int
	// Decisions holds the decoded payload symbols + hints (after the
	// missing prefix). Read-only: when both variants acquired the same
	// reception, their outcomes share one slice.
	Decisions []phy.Decision
	// TruthSyms is the transmitted payload's true symbols.
	TruthSyms []byte
}

// ErrorPattern returns the payload's coded-bit error pattern: four chips
// per symbol, symbol bit 0 first, each symbol's decoded value XOR its true
// value, and all ones where the receiver never decoded the symbol (missing
// prefix, truncated reception). A clear nibble is a correct symbol. Every
// recovery scheme scores the outcome from this one packed stream.
func (o *Outcome) ErrorPattern() *bitutil.ChipWords {
	n := len(o.TruthSyms)
	words := make([]uint64, (n+15)/16)
	for idx, truth := range o.TruthSyms {
		e := byte(0xF)
		if di := idx - o.MissingPrefix; di >= 0 && di < len(o.Decisions) {
			e = (o.Decisions[di].Symbol ^ truth) & 0xF
		}
		// Chips pack MSB-first, so bit 0 goes to the nibble's top bit.
		words[idx/16] |= uint64(bits.Reverse8(e)>>4) << uint(60-4*(idx%16))
	}
	return bitutil.ChipWordsOf(words).Slice(0, 4*n)
}

// Deliver scores every link under two receivers (Sec. 4, Sec. 7.2): the
// status quo, which acquires a packet only through its preamble, and PPR's,
// which also rolls back from the postamble. One receive pass yields both.
const (
	VariantNoPostamble = 0
	VariantPostamble   = 1
)

// VariantNames labels the variants in experiment output, indexed by variant.
var VariantNames = [...]string{"no postamble decoding", "postamble decoding"}

// interferenceFloorDB: transmissions weaker than this below the noise floor
// are dropped from synthesis (negligible interference), bounding window
// sizes.
const interferenceFloorDB = 10

// ScoringMarginDB: a (sender, receiver) pair counts as a link — and its
// transmissions produce Outcomes — only when the received power clears the
// noise floor by this margin. Weaker transmissions still contribute
// interference, but they are not links anyone would route over, and the
// paper's per-link statistics cover only the senders each sink "could
// hear" (Sec. 7.2.2).
const ScoringMarginDB = 3

// guardChips separates windows: a gap this long with no audible signal
// closes the current window.
const guardChips = 2048

// audibleTx is one transmission as heard at a particular receiver.
type audibleTx struct {
	tx      *Transmission
	powerMW float64
	// link marks a pair that clears ScoringMarginDB: only links yield
	// outcomes, the others are interference.
	link bool
}

// window is one independent delivery work unit: a burst of transmissions
// audible at one receiver, isolated from the rest of the run by silent
// guard gaps on both sides.
type window struct {
	receiver int
	// origin and length bound the synthesis window in absolute chips.
	origin int64
	length int
	// members are the audible transmissions inside the window.
	members []audibleTx
	// links counts the members that are links: the window yields exactly
	// two outcomes per link.
	links int
}

// buildWindows clusters each receiver's audible transmissions into windows
// separated by silent gaps. This is the cheap, sequential part of delivery;
// the expensive synthesis + decode over each window fans out to workers.
func buildWindows(cfg Config, txs []*Transmission) []window {
	tb := cfg.Testbed
	floorMW := radio.DBmToMW(tb.Params.NoiseFloorDBm - interferenceFloorDB)
	var windows []window
	for j := 0; j < testbed.NumReceivers; j++ {
		// Audible set at this receiver, with per-tx received power.
		var aud []audibleTx
		for _, tx := range txs {
			if p := tb.RxPowerMW(tx.Src, j); p >= floorMW {
				link := tb.GainDBm[tx.Src][j] >= tb.Params.NoiseFloorDBm+ScoringMarginDB
				aud = append(aud, audibleTx{tx, p, link})
			}
		}
		for wStart := 0; wStart < len(aud); {
			wEnd := wStart + 1
			maxEnd := aud[wStart].tx.EndChip()
			for wEnd < len(aud) && aud[wEnd].tx.StartChip < maxEnd+guardChips {
				if e := aud[wEnd].tx.EndChip(); e > maxEnd {
					maxEnd = e
				}
				wEnd++
			}
			links := 0
			for _, m := range aud[wStart:wEnd] {
				if m.link {
					links++
				}
			}
			// Window bounds with margin.
			origin := aud[wStart].tx.StartChip - 64
			windows = append(windows, window{
				receiver: j,
				origin:   origin,
				length:   int(maxEnd-origin) + 64,
				members:  aud[wStart:wEnd],
				links:    links,
			})
			wStart = wEnd
		}
	}
	return windows
}

// deliverState is one worker's reusable receiver machinery: a Receiver
// plus scratch slices, all recycled across the windows the worker
// processes. frame.Receiver owns arena buffers that back the Receptions it
// returns, so reusing the receiver makes the whole per-window decode
// allocation-free — the price is that deliverWindow must copy the
// Decisions it keeps into each Outcome before the next window overwrites
// the arena.
type deliverState struct {
	rx       *frame.Receiver
	syncs    []frame.Sync
	overlaps []radio.Overlap
	synth    radio.Scratch
}

// deliverWindow synthesizes one window's chip stream, runs one receive pass
// over it and scores both variants off that pass. rng must be dedicated to
// this window; st must be dedicated to the calling worker.
func deliverWindow(cfg Config, w window, st *deliverState, rng *stats.RNG) []Outcome {
	tb := cfg.Testbed
	noiseMW := radio.DBmToMW(tb.Params.NoiseFloorDBm)

	st.overlaps = st.overlaps[:0]
	for _, m := range w.members {
		st.overlaps = append(st.overlaps, radio.Overlap{
			Start:   int(m.tx.StartChip - w.origin),
			Chips:   m.tx.ChipStream(),
			PowerMW: m.powerMW,
		})
	}
	// The synthesizer's packed output is the receiver's buffer directly —
	// no repack between channel and sync scan. It is st's reused window:
	// outcomes copy their decisions, so no chip outlives this call.
	buf := st.synth.SynthesizeFading(rng, w.length, st.overlaps, noiseMW, radio.DefaultCoherenceChips)
	st.syncs = frame.AppendSyncs(st.syncs[:0], buf, frame.DefaultSyncMaxDist)
	recs, preamble := st.rx.ReceiveSynced(buf, st.syncs)

	outcomes := make([]Outcome, 0, 2*w.links)
	for _, m := range w.members {
		if !m.link {
			continue // interference-only pair
		}
		tx := m.tx
		pre, post := matchReception(preamble, w.origin, tx), matchReception(recs, w.origin, tx)
		lost := Outcome{TxID: tx.ID, Src: tx.Src, Receiver: w.receiver, TruthSyms: tx.TruthSyms}
		o := lost
		if pre != nil {
			o.acquire(pre)
		}
		outcomes = append(outcomes, o)
		// AppendSyncs reports each offset once, so a window holds at most
		// one preamble reception per payload start and a preamble-kind
		// match is pre itself: the postamble variant's outcome then
		// differs only in Variant and shares the Decisions copy.
		if pre == nil || post == nil || post.Kind != frame.SyncPreamble {
			o = lost
			if post != nil {
				o.acquire(post)
			}
		}
		o.Variant = VariantPostamble
		outcomes = append(outcomes, o)
	}
	return outcomes
}

// matchReception finds tx among a window's receptions by payload start
// chip and header identity; among duplicates it keeps the one that
// recovered the most. It returns nil when tx was not acquired. The
// reception count per window is tiny, so a linear scan beats building a
// map.
func matchReception(recs []frame.Reception, origin int64, tx *Transmission) *frame.Reception {
	var best *frame.Reception
	for ri := range recs {
		rec := &recs[ri]
		if !rec.HeaderOK || origin+int64(rec.PayloadStartChip) != tx.PayloadStartChip() {
			continue
		}
		if best == nil || len(rec.Decisions) > len(best.Decisions) {
			best = rec
		}
	}
	if best == nil || best.Hdr.Src != tx.Frame.Hdr.Src || best.Hdr.Seq != tx.Frame.Hdr.Seq {
		return nil
	}
	return best
}

// acquire records rec as o's reception. rec's Decisions live in the
// receiver's arena and die at its next ReceiveSynced; the Outcome outlives
// that, so acquire copies them.
func (o *Outcome) acquire(rec *frame.Reception) {
	o.Acquired, o.Kind, o.CRCOK, o.MissingPrefix = true, rec.Kind, rec.CRCOK, rec.MissingPrefix
	o.Decisions = append([]phy.Decision(nil), rec.Decisions...)
}

// Deliver synthesizes every receiver's chip stream window by window, runs
// one receive pass over it and returns outcomes for every (audible
// transmission, receiver, variant). A transmission audible at a receiver
// with no matching reception yields an Outcome with Acquired=false — those
// count against delivery rates exactly like the paper's lost packets.
//
// Windows execute on cfg.Workers goroutines; each window's randomness is
// derived from (cfg.Seed, receiver, window origin), so the returned trace is
// identical for every worker count. Outcomes are ordered by (receiver,
// transmission, variant).
func Deliver(cfg Config, txs []*Transmission) []Outcome {
	outs, _ := DeliverContext(context.Background(), cfg, txs)
	return outs
}

// DeliverContext is Deliver with cancellation: ctx is checked between
// windows (the unit of work), so a cancel or deadline returns promptly —
// within one window's synthesis — with ctx.Err() and no goroutine left
// behind. The partial trace is discarded; a nil error means the trace is
// complete and identical to Deliver's.
func DeliverContext(ctx context.Context, cfg Config, txs []*Transmission) ([]Outcome, error) {
	windows := buildWindows(cfg, txs)
	base := stats.NewRNG(cfg.Seed ^ 0xdeadbeef)

	m := newDeliverMetrics()
	var busy atomic.Int64
	workers := min(cfg.workers(), len(windows))
	jobs := make(chan window)
	results := make(chan []Outcome, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		wo := m.worker(i, &busy)
		go func() {
			defer wg.Done()
			st := &deliverState{rx: frame.NewReceiver(phy.HardDecoder{})}
			for w := range jobs {
				wo.begin()
				batch := deliverWindow(cfg, w, st, base.Derive(uint64(w.receiver), uint64(w.origin)))
				wo.done(len(batch))
				results <- batch
			}
		}()
	}
	go func() {
		// Stop feeding on cancellation; in-flight windows finish, then the
		// pool drains and the collector unblocks.
	feed:
		for _, w := range windows {
			select {
			case jobs <- w:
			case <-ctx.Done():
				break feed
			}
		}
		close(jobs)
		wg.Wait()
		close(results)
	}()
	// Collector: stream window batches into one trace as they complete,
	// sized up front from the windows' link counts.
	total := 0
	for _, w := range windows {
		total += 2 * w.links
	}
	outcomes := make([]Outcome, 0, total)
	for batch := range results {
		outcomes = append(outcomes, batch...)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Completion order is nondeterministic under parallelism; (receiver,
	// transmission, variant) is unique per outcome, so sorting restores a
	// canonical order.
	sort.Slice(outcomes, func(a, b int) bool {
		oa, ob := &outcomes[a], &outcomes[b]
		if oa.Receiver != ob.Receiver {
			return oa.Receiver < ob.Receiver
		}
		if oa.TxID != ob.TxID {
			return oa.TxID < ob.TxID
		}
		return oa.Variant < ob.Variant
	})
	return outcomes, nil
}

// Run is the convenience wrapper: schedule then deliver.
func Run(cfg Config) ([]*Transmission, []Outcome) {
	txs := Schedule(cfg)
	return txs, Deliver(cfg, txs)
}

// RunContext is Run with cancellation threaded through delivery; see
// DeliverContext for the guarantees.
func RunContext(ctx context.Context, cfg Config) ([]*Transmission, []Outcome, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	txs := Schedule(cfg)
	outs, err := DeliverContext(ctx, cfg, txs)
	if err != nil {
		return nil, nil, err
	}
	return txs, outs, nil
}
