package experiments

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"ppr/internal/schemes"
	"ppr/internal/sim"
	"ppr/internal/stats"
)

func quickOpts() Options { return Options{Seed: 1, Quick: true} }

func TestFig8ShapesHold(t *testing.T) {
	fig := Fig8(quickOpts())
	if want := 2 * len(schemes.All()); len(fig.Curves) != want {
		t.Fatalf("%d curves, want %d", len(fig.Curves), want)
	}
	m := medians(fig)
	// The paper's orderings at moderate load with carrier sense:
	// PPR ≥ fragmented CRC ≥ packet CRC (within each postamble setting).
	if !(m["PPR, postamble decoding"] >= m["Fragmented CRC, postamble decoding"]-0.05) {
		t.Errorf("PPR %v below fragmented CRC %v", m["PPR, postamble decoding"], m["Fragmented CRC, postamble decoding"])
	}
	if !(m["Fragmented CRC, postamble decoding"] >= m["Packet CRC, postamble decoding"]-0.05) {
		t.Errorf("frag %v below packet CRC %v", m["Fragmented CRC, postamble decoding"], m["Packet CRC, postamble decoding"])
	}
}

func TestFig10HighLoadSeparation(t *testing.T) {
	fig := Fig10(quickOpts())
	m := medians(fig)
	// Under heavy load without carrier sense, packet CRC collapses while
	// PPR stays high — the paper's headline separation.
	ppr := m["PPR, postamble decoding"]
	crc := m["Packet CRC, postamble decoding"]
	if ppr < crc {
		t.Errorf("PPR median %v below packet CRC %v at high load", ppr, crc)
	}
	if ppr < 0.2 {
		t.Errorf("PPR median %v collapsed at high load", ppr)
	}
	t.Logf("high-load medians: PPR %.3f, frag %.3f, packet CRC %.3f",
		ppr, m["Fragmented CRC, postamble decoding"], crc)
}

func TestPostambleImprovesDelivery(t *testing.T) {
	fig := Fig10(quickOpts())
	m := medians(fig)
	for _, scheme := range []string{"PPR", "Fragmented CRC"} {
		with := m[scheme+", postamble decoding"]
		without := m[scheme+", no postamble decoding"]
		if with < without-0.02 {
			t.Errorf("%s: postamble median %v below no-postamble %v", scheme, with, without)
		}
	}
}

func medians(fig DeliveryFigure) map[string]float64 {
	m := map[string]float64{}
	for _, c := range fig.Curves {
		m[c.Label] = c.Median
	}
	return m
}

func TestFig3HintSeparation(t *testing.T) {
	curves := Fig3(quickOpts())
	if len(curves) != 6 {
		t.Fatalf("%d curves", len(curves))
	}
	for _, c := range curves {
		if c.Count == 0 {
			continue
		}
		if c.Correct {
			// Paper: conditioned on a correct decoding, 96% of codewords
			// at distance ≤ 1. Require a strong majority.
			if p := stats.CDFAt(c.CDF, 1); p < 0.8 {
				t.Errorf("load %v: only %.2f of correct codewords at distance <= 1", c.OfferedBps, p)
			}
		} else {
			// Paper: barely 10% of incorrect codewords at distance ≤ 6.
			if p := stats.CDFAt(c.CDF, 6); p > 0.4 {
				t.Errorf("load %v: %.2f of incorrect codewords at distance <= 6 (want small)", c.OfferedBps, p)
			}
		}
	}
}

func TestFig14MissRunsShort(t *testing.T) {
	curves := Fig14(quickOpts())
	if len(curves) != 4 {
		t.Fatalf("%d curves", len(curves))
	}
	for _, c := range curves {
		if len(c.CCDF) == 0 {
			continue
		}
		// Majority of miss runs have length 1 (paper: ~30% at length
		// exactly 1 with fast-decaying tail; we require the CCDF to decay).
		p1 := 1 - stats.CDFAt(ccdfToCDF(c.CCDF), 1)
		_ = p1
		last := c.CCDF[len(c.CCDF)-1]
		if last.P > 0.5 {
			t.Errorf("eta %v: CCDF does not decay (tail %v)", c.Eta, last.P)
		}
	}
	// Miss rate grows with η.
	for i := 1; i < len(curves); i++ {
		if curves[i].MissRate < curves[i-1].MissRate-1e-9 {
			t.Errorf("miss rate not monotone in eta: %v then %v", curves[i-1].MissRate, curves[i].MissRate)
		}
	}
}

func ccdfToCDF(ccdf []stats.CDFPoint) []stats.CDFPoint {
	out := make([]stats.CDFPoint, len(ccdf))
	for i, p := range ccdf {
		out[i] = stats.CDFPoint{X: p.X, P: 1 - p.P}
	}
	return out
}

func TestFig15FalseAlarmLow(t *testing.T) {
	curves := Fig15(quickOpts())
	for _, c := range curves {
		// Paper: ~5 in 1000 at η=6. Require it stays well under 5%.
		if c.FalseAlarmAtEta6 > 0.05 {
			t.Errorf("load %v: false alarm rate %v at eta 6", c.OfferedBps, c.FalseAlarmAtEta6)
		}
	}
}

func TestFig13CollisionAnatomy(t *testing.T) {
	res := Fig13(quickOpts())
	if len(res.Packet1) == 0 || len(res.Packet2) == 0 {
		t.Fatal("empty timelines")
	}
	// Packet 2 (strong) decodes mostly correctly with low hints.
	correct2 := 0
	for _, pt := range res.Packet2 {
		if pt.Correct {
			correct2++
		}
	}
	if frac := float64(correct2) / float64(len(res.Packet2)); frac < 0.8 {
		t.Errorf("strong packet only %.2f correct", frac)
	}
	// Packet 1: tail correct (after the collider ends), early body wrong.
	n := len(res.Packet1)
	tailCorrect, headWrong := 0, 0
	for _, pt := range res.Packet1[n*3/4:] {
		if pt.Correct {
			tailCorrect++
		}
	}
	for _, pt := range res.Packet1[10:60] {
		if !pt.Correct {
			headWrong++
		}
	}
	if frac := float64(tailCorrect) / float64(n-n*3/4); frac < 0.8 {
		t.Errorf("packet 1 tail only %.2f correct", frac)
	}
	if headWrong < 25 {
		t.Errorf("packet 1 collision region only %d/50 wrong", headWrong)
	}
	// The hints must expose the damage: incorrect codewords of packet 1
	// carry much larger Hamming distances than correct ones (the paper's
	// caption: "Hamming distance indicates the correct parts of these
	// packets to higher layers").
	var hintsCorrect, hintsWrong []float64
	for _, pt := range res.Packet1 {
		if !pt.Decoded {
			continue
		}
		if pt.Correct {
			hintsCorrect = append(hintsCorrect, pt.Hint)
		} else {
			hintsWrong = append(hintsWrong, pt.Hint)
		}
	}
	if len(hintsWrong) > 0 && len(hintsCorrect) > 0 {
		if stats.Mean(hintsWrong) < stats.Mean(hintsCorrect)+4 {
			t.Errorf("hints do not separate: wrong mean %.2f vs correct mean %.2f",
				stats.Mean(hintsWrong), stats.Mean(hintsCorrect))
		}
	}
	// Packet 1 must be recoverable via its postamble (preamble destroyed).
	foundPost := false
	for _, via := range res.P1AcquiredVia {
		if via == "postamble" {
			foundPost = true
		}
	}
	if !foundPost {
		t.Errorf("packet 1 not acquired via postamble: %v", res.P1AcquiredVia)
	}
}

func TestFig16RetxSavings(t *testing.T) {
	res := Fig16(quickOpts())
	if res.Failures > res.Transfers/4 {
		t.Errorf("%d of %d transfers failed", res.Failures, res.Transfers)
	}
	if len(res.RetxSizes) == 0 {
		t.Fatal("no retransmissions recorded on a bursty link")
	}
	// Paper: median retransmission ≈ half the 250-byte packet. Require
	// clearly below a full packet.
	if res.MedianRetxBytes >= float64(res.PacketBytes) {
		t.Errorf("median retransmission %v not below packet size %d", res.MedianRetxBytes, res.PacketBytes)
	}
	t.Logf("median retx %v bytes of %d-byte packets over %d retx",
		res.MedianRetxBytes, res.PacketBytes, len(res.RetxSizes))
}

func TestTable2TradeoffShape(t *testing.T) {
	rows := Table2(quickOpts())
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	// The paper's Table 2 peaks at an interior chunk count (30): both
	// extremes must be below the maximum.
	best, bestIdx := rows[0].AggregateKbps, 0
	for i, r := range rows {
		if r.AggregateKbps > best {
			best, bestIdx = r.AggregateKbps, i
		}
	}
	if bestIdx == 0 || bestIdx == len(rows)-1 {
		t.Logf("rows: %+v", rows)
		t.Errorf("optimal chunk count at extreme index %d; paper peaks interior", bestIdx)
	}
}

func TestSummaryRatios(t *testing.T) {
	rows := Summary(quickOpts())
	byName := map[string]float64{}
	for _, r := range rows {
		byName[r.Name] = r.Value
	}
	if v := byName["PPR vs packet CRC median throughput, high load"]; v < 1.5 {
		t.Errorf("high-load PPR/packetCRC ratio %v; paper reports ~7x", v)
	}
	if v := byName["PP-ARQ median retransmission fraction of packet size"]; v <= 0 || v >= 1 {
		t.Errorf("retx fraction %v out of (0,1)", v)
	}
}

func TestFig12ScatterAboveDiagonal(t *testing.T) {
	series := Fig12(quickOpts())
	if len(series) != 6 {
		t.Fatalf("%d series", len(series))
	}
	for _, s := range series {
		if s.Scheme != (schemes.PPR{}) {
			continue
		}
		above, total := 0, 0
		for _, pt := range s.Points {
			if pt.FragKbps == 0 && pt.YKbps == 0 {
				continue
			}
			total++
			if pt.YKbps >= pt.FragKbps {
				above++
			}
		}
		if total == 0 {
			continue
		}
		if frac := float64(above) / float64(total); frac < 0.6 {
			t.Errorf("load %v: PPR above fragmented CRC on only %.2f of links", s.OfferedBps, frac)
		}
	}
}

func TestFig11ThroughputOrdering(t *testing.T) {
	fig := Fig11(quickOpts())
	m := map[string]float64{}
	for _, c := range fig.Curves {
		m[c.Label] = c.Median
	}
	if m["PPR, postamble decoding"] < m["Packet CRC, postamble decoding"] {
		t.Errorf("PPR throughput median %v below packet CRC %v",
			m["PPR, postamble decoding"], m["Packet CRC, postamble decoding"])
	}
}

func TestDiversityCombiningNeverWorse(t *testing.T) {
	res := Diversity(quickOpts())
	if res.Packets == 0 {
		t.Fatal("no packets heard")
	}
	if res.CombinedRate < res.SingleRate-1e-9 {
		t.Errorf("combining delivered %.3f, below best-single %.3f",
			res.CombinedRate, res.SingleRate)
	}
	if res.MultiView == 0 {
		t.Error("no packet was heard by multiple receivers at high load")
	}
	t.Logf("diversity: %d packets (%d multi-view), single %.3f -> combined %.3f",
		res.Packets, res.MultiView, res.SingleRate, res.CombinedRate)
}

func TestLinkAccumRate(t *testing.T) {
	a := LinkAccum{DeliveredBytes: 750, SentBytes: 1500, Packets: 1}
	if a.Rate() != 0.5 {
		t.Errorf("rate %v", a.Rate())
	}
	if (LinkAccum{}).Rate() != 0 {
		t.Error("empty accumulator rate should be 0")
	}
}

func TestRatesAndThroughputs(t *testing.T) {
	acc := map[LinkKey]LinkAccum{
		{0, 0}: {DeliveredBytes: 1000, SentBytes: 2000},
		{1, 0}: {DeliveredBytes: 500, SentBytes: 2000},
	}
	rates := Rates(acc)
	if len(rates) != 2 {
		t.Fatal("rate count")
	}
	tp := ThroughputsKbps(acc, 2.0)
	// 1000 bytes over 2 s = 4000 bits / 2 s = 2 Kbit/s.
	found := false
	for _, v := range tp {
		if v == 2.0 {
			found = true
		}
	}
	if !found {
		t.Errorf("throughputs %v missing 2.0", tp)
	}
}

func TestPerLinkDeliveryWorkerInvariant(t *testing.T) {
	// The parallel post-processing fan-out must not change results: every
	// scheme's per-link accumulators are identical for any worker count.
	o := quickOpts()
	tr := o.Trace(LoadHigh, false)
	p := DefaultSchemeParams()
	seq := NewPost(tr.Outs, tr.Cfg.PacketBytes, 1)
	par := NewPost(tr.Outs, tr.Cfg.PacketBytes, 8)
	for _, s := range schemes.All() {
		for variant := range sim.VariantNames {
			a := seq.PerLinkDelivery(variant, s, p)
			b := par.PerLinkDelivery(variant, s, p)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s variant %d: sequential and parallel post-processing disagree", s.Name(), variant)
			}
		}
	}
}

func TestFiguresCarryFECCurves(t *testing.T) {
	// The orphaned fec/interleave packages are wired into the figures: the
	// delivery figures carry a curve per registered scheme, including the
	// block-FEC family, and FEC delivers something but less than PPR
	// (rate-1/2 coding halves capacity).
	fig := Fig8(quickOpts())
	m := medians(fig)
	for _, label := range []string{
		"FEC, postamble decoding",
		"FEC+interleaving, postamble decoding",
		"PPR+FEC, postamble decoding",
	} {
		if _, ok := m[label]; !ok {
			t.Errorf("figure missing curve %q", label)
		}
	}
	if m["FEC, postamble decoding"] <= 0 {
		t.Error("FEC delivered nothing at moderate load with carrier sense")
	}
	// Delivery *rate* normalizes by each scheme's own capacity, so repaired
	// FEC can match PPR there — but the rate-1/2 code's halved capacity must
	// show up in *throughput*: Fig. 11's FEC median stays below PPR's.
	tput := Fig11(quickOpts())
	tm := map[string]float64{}
	for _, c := range tput.Curves {
		tm[c.Label] = c.Median
	}
	if tm["FEC, postamble decoding"] >= tm["PPR, postamble decoding"] {
		t.Errorf("FEC throughput median %v not below PPR %v despite halved capacity",
			tm["FEC, postamble decoding"], tm["PPR, postamble decoding"])
	}
}

func TestOptionsSchemeSelection(t *testing.T) {
	o := quickOpts()
	o.Schemes = []string{"ppr"}
	fig := Fig8(o)
	if len(fig.Curves) != 2 {
		t.Fatalf("selected 1 scheme, got %d curves", len(fig.Curves))
	}
	for _, c := range fig.Curves {
		if c.Label != "PPR, no postamble decoding" && c.Label != "PPR, postamble decoding" {
			t.Errorf("unexpected curve %q", c.Label)
		}
	}
}

func TestLoadName(t *testing.T) {
	if LoadName(3500) != "3.5 Kbits/s/node" {
		t.Errorf("got %q", LoadName(3500))
	}
}

func TestOptionsScaling(t *testing.T) {
	q := Options{Quick: true}
	f := Options{}
	if q.PacketBytes() >= f.PacketBytes() {
		t.Error("quick packets not smaller")
	}
	if q.DurationSec() >= f.DurationSec() {
		t.Error("quick duration not shorter")
	}
}

func TestTraceCacheHits(t *testing.T) {
	c := NewTraceCache()
	o := quickOpts()
	tr1 := c.Get(o, LoadModerate, true)
	tr2 := c.Get(o, LoadModerate, true)
	if tr1 != tr2 {
		t.Error("cache miss for identical operating point")
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", hits, misses)
	}
	// A different operating point is a distinct trace.
	tr3 := c.Get(o, LoadModerate, false)
	if tr3 == tr1 {
		t.Error("distinct operating points shared a trace")
	}
	// A different scenario is a distinct trace too.
	o2 := o
	o2.Scenario = "periodic-jammer"
	if c.Get(o2, LoadModerate, true) == tr1 {
		t.Error("distinct scenarios shared a trace")
	}
	c.Reset()
	if hits, misses := c.Stats(); hits != 0 || misses != 0 {
		t.Errorf("post-reset stats hits=%d misses=%d", hits, misses)
	}
}

func TestTraceCacheCancelledFillNotPoisoned(t *testing.T) {
	c := NewTraceCache()
	o := quickOpts()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.GetContext(ctx, o, LoadModerate, true); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fill: err = %v, want context.Canceled", err)
	}
	// The aborted fill must not poison the entry: a later Get re-simulates
	// and succeeds...
	tr, err := c.GetContext(context.Background(), o, LoadModerate, true)
	if err != nil || tr == nil || len(tr.Outs) == 0 {
		t.Fatalf("retry after cancelled fill: %v", err)
	}
	// ...and its result is cached for everyone after it.
	if tr2 := c.Get(o, LoadModerate, true); tr2 != tr {
		t.Error("successful retry was not re-inserted into the cache")
	}
}

func TestTraceCacheConcurrentSingleRun(t *testing.T) {
	c := NewTraceCache()
	o := quickOpts()
	const callers = 8
	traces := make([]*Trace, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			traces[i] = c.Get(o, LoadModerate, true)
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if traces[i] != traces[0] {
			t.Fatal("concurrent callers got different traces")
		}
	}
	if _, misses := c.Stats(); misses != 1 {
		t.Errorf("misses=%d, want exactly 1 simulation", misses)
	}
}

func TestFiguresShareTraces(t *testing.T) {
	// Fig10, Fig14, Table2 and Diversity all post-process the high-load,
	// no-carrier-sense trace; regenerating all four must simulate it once.
	SharedTraces.Reset()
	o := Options{Seed: 77, Quick: true}
	Fig10(o)
	h0, m0 := SharedTraces.Stats()
	Fig14(o)
	Table2(o)
	Diversity(o)
	h1, m1 := SharedTraces.Stats()
	if m1 != m0 {
		t.Errorf("extra simulations: misses %d -> %d", m0, m1)
	}
	if h1 != h0+3 {
		t.Errorf("hits %d -> %d, want +3", h0, h1)
	}
}
