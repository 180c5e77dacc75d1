package netsim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"ppr/internal/frame"
	"ppr/internal/jam"
	"ppr/internal/obs"
	"ppr/internal/radio"
	"ppr/internal/scenario"
	"ppr/internal/stats"
	"ppr/internal/topo"
)

// resultDigest hashes a Result into a golden constant. The echoed
// FlowResult.Flow is left out: it restates the configuration, not an
// outcome.
func resultDigest(r Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%v %d %d %d %d %d\n", r.DurationSec, r.BusyChips, r.TxChips, r.JamFrames, r.JamChips, r.Domains)
	for _, f := range r.Flows {
		fmt.Fprintf(h, "%d %d %d %+v\n", f.DeliveredAppBytes, f.Transfers, f.Failures, f.Air)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestNetsimStrategyParityWithLegacyJammers is the closed-loop acceptance
// gate for the strategy re-expression of the legacy arrival-model jammers.
// The digests were recorded from the legacy periodic (40-byte bursts) and
// reactive (60-byte bursts) jammer nodes while that model still shipped,
// with the flow addressed by testbed receiver index, and equalled the
// registry strategies' digests then. A JammerNode driven by the registry
// strategy, on the testbed as a Topology with global receiver IDs, must
// keep reproducing them bit for bit — same bursts, same payload draws,
// same delivery accounting.
func TestNetsimStrategyParityWithLegacyJammers(t *testing.T) {
	tb := bed()
	cases := []struct {
		strategy   string
		burstBytes int
		golden     map[uint64]string
	}{
		{"periodic", scenario.JamBurstBytes, map[uint64]string{
			1:  "0b6576c4bcb4a6ffd4acc948d1e792fc8193ed4a6ad91534ee81e6d0ec507bd8",
			7:  "f7f3ee2d83c7e94cd038653a25722ef7adf9f0728bc03cdf2a020547d9bf8c9f",
			42: "90f00041fed557d6b591dbc9a2213c3ce907309d7cf1198b6228abd237eb4d48",
		}},
		{"reactive", scenario.ReactiveBurstBytes, map[uint64]string{
			1:  "547f8131fd98e40bc986b8fbcdb98913992a6c48ff0781c644f6c1707550a2d6",
			7:  "9c957fca34c35ed0370d156cca473356bd54f5f35a6c49943ff44e376d73bb4d",
			42: "36cd1ce5e910c2a5d13999e6082907235d4d11a554a94590d037477e7052caa7",
		}},
	}
	for _, tc := range cases {
		for seed, want := range tc.golden {
			cfg := baseConfig(tb)
			cfg.Seed = seed
			cfg.Jammers = []JammerNode{{Sender: 9,
				Strategy:   mustStrategy(t, tc.strategy),
				BurstBytes: tc.burstBytes,
			}}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.JamFrames == 0 {
				t.Fatalf("%s seed %d: jammer never fired", tc.strategy, seed)
			}
			if got := resultDigest(res); got != want {
				t.Errorf("%s seed %d: result digest %s, golden %s\n%+v", tc.strategy, seed, got, want, res)
			}
		}
	}
}

func mustStrategy(t *testing.T, name string) jam.Strategy {
	t.Helper()
	s, err := jam.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// twoClusterTopo builds two audibility-isolated clusters, each with a
// jammer (j*), a sender (s*) and a receiver (r*), with pinned link budgets
// so the shape does not depend on the shadowing draw. It yields two
// interference domains — the sharding that worker invariance must not leak
// through.
func twoClusterTopo(t *testing.T) *topo.Topology {
	t.Helper()
	b := topo.NewBuilder(radio.DefaultParams(), 3)
	for i, x0 := range []float64{0, 5000} {
		names := [3]string{"j", "s", "r"}
		for k, n := range names {
			b.Node(n+string(rune('a'+i)), x0+float64(k)*20, 0)
		}
	}
	for _, c := range []string{"a", "b"} {
		b.LinkDBm("s"+c, "r"+c, -60)
		b.LinkDBm("j"+c, "s"+c, -62)
		b.LinkDBm("j"+c, "r"+c, -66)
	}
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// TestNetsimJamWorkerInvariance runs every registered strategy as jammers in
// a two-domain deployment under the merged single queue and under 1 and 4
// workers, on two channels, and requires bit-identical Results. This is the
// proof that strategy observations — per-channel busy power and the active
// transmission view, which in a merged queue come from a differently-shaped
// active heap — are canonicalized before the adversary sees them.
func TestNetsimJamWorkerInvariance(t *testing.T) {
	tp := twoClusterTopo(t)
	for _, name := range jam.Names() {
		base := Config{
			Topo:         tp,
			Flows:        []Flow{{Sender: 1, Receiver: 2}, {Sender: 4, Receiver: 5}},
			PacketBytes:  200,
			DurationSec:  0.25,
			CarrierSense: true,
			Seed:         11,
			NumChannels:  2,
			Jammers: []JammerNode{
				{Sender: 0, Strategy: mustStrategy(t, name), BurstBytes: 48},
				{Sender: 3, Strategy: mustStrategy(t, name), BurstBytes: 48},
			},
		}
		run := func(workers int, single bool) Result {
			cfg := base
			cfg.Workers = workers
			cfg.singleQueue = single
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return res
		}
		ref := run(1, true)
		if ref.Domains < 2 {
			t.Fatalf("%s: expected >= 2 interference domains, got %d", name, ref.Domains)
		}
		for _, workers := range []int{1, 4} {
			if got := run(workers, false); !reflect.DeepEqual(ref, got) {
				t.Errorf("%s: %d-worker sharded result diverges from single queue:\nsingle  %+v\nsharded %+v",
					name, workers, ref, got)
			}
		}
	}
}

// fixedChannelJam is a test strategy: fire every period on one fixed channel.
type fixedChannelJam struct {
	period int64
	ch     uint8
}

func (f fixedChannelJam) Name() string { return "fixed-channel" }

func (f fixedChannelJam) Emitter(p jam.Params, rng *stats.RNG) jam.Emitter {
	return &fixedChannelEmitter{period: f.period, ch: f.ch}
}

type fixedChannelEmitter struct {
	next, period int64
	ch           uint8
}

func (e *fixedChannelEmitter) NextPoll() int64 {
	t := e.next
	e.next += e.period
	return t
}

func (e *fixedChannelEmitter) Poll(jam.Observation) jam.Burst {
	return jam.Burst{Fire: true, Channel: e.ch}
}

// TestChannelsAreOrthogonal pins the channel model: a jammer saturating
// channel 1 leaves flows on channel 0 with exactly the accounting of a
// jammer-free run, while the same jammer on channel 0 degrades them.
func TestChannelsAreOrthogonal(t *testing.T) {
	tb := bed()
	mk := func(jammers []JammerNode) Result {
		cfg := baseConfig(tb)
		cfg.NumChannels = 2
		cfg.LinkLayer = "packet-crc-arq"
		cfg.Jammers = jammers
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	jamOn := func(ch uint8) []JammerNode {
		return []JammerNode{{Sender: 9,
			Strategy:   fixedChannelJam{period: 12_000, ch: ch},
			BurstBytes: 120,
		}}
	}
	clean := mk(nil)
	offCh := mk(jamOn(1))
	onCh := mk(jamOn(0))
	if offCh.JamFrames == 0 || onCh.JamFrames == 0 {
		t.Fatal("fixed-channel jammer never fired")
	}
	if !reflect.DeepEqual(clean.Flows, offCh.Flows) {
		t.Errorf("jamming the other channel perturbed the flows:\nclean %+v\njam   %+v",
			clean.Flows, offCh.Flows)
	}
	if onCh.Flows[0].DeliveredAppBytes > clean.Flows[0].DeliveredAppBytes {
		t.Errorf("co-channel jamming delivered more (%d) than clean (%d)",
			onCh.Flows[0].DeliveredAppBytes, clean.Flows[0].DeliveredAppBytes)
	}
	if onCh.Flows[0].Air.RetxAirBytes+onCh.Flows[0].Air.FullResends <=
		clean.Flows[0].Air.RetxAirBytes+clean.Flows[0].Air.FullResends {
		t.Errorf("co-channel jamming caused no extra recovery work")
	}
}

// TestPowerDeltaWidensAudibility pins PowerDeltaDBm's mechanism: boosting a
// jammer's link budget grows the set of nodes that hear it (and only its
// outgoing rows), which is how a stronger adversary reaches more victims.
func TestPowerDeltaWidensAudibility(t *testing.T) {
	tb := bed()
	build := func(delta float64) *runState {
		cfg := baseConfig(tb)
		cfg.Jammers = []JammerNode{{Sender: 9,
			Strategy:      mustStrategy(t, "periodic"),
			PowerDeltaDBm: delta,
		}}
		top, flows, jams, err := normalize(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return newRunState(cfg, top, flows, jams)
	}
	plain := build(0)
	boosted := build(25)
	jn := 9
	if len(boosted.heardBy[jn]) < len(plain.heardBy[jn]) {
		t.Errorf("+25 dB jammer heard by %d nodes, plain by %d — boost shrank audibility",
			len(boosted.heardBy[jn]), len(plain.heardBy[jn]))
	}
	// Every node that heard the plain jammer hears the boosted one ~316x
	// (25 dB) louder.
	want := radio.DBmToMW(25) / radio.DBmToMW(0)
	for i, v := range plain.heardBy[jn] {
		if boosted.heardBy[jn][i] != v {
			t.Fatalf("boosted audibility list reordered at %d", i)
		}
		ratio := boosted.heardByPw[jn][i] / plain.heardByPw[jn][i]
		if ratio < want*0.99 || ratio > want*1.01 {
			t.Fatalf("node %d hears the boosted jammer %.1fx louder, want ~%.1fx", v, ratio, want)
		}
	}
	for u := 0; u < plain.nn; u++ {
		if u == jn {
			continue
		}
		if !reflect.DeepEqual(plain.heardBy[u], boosted.heardBy[u]) ||
			!reflect.DeepEqual(plain.heardByPw[u], boosted.heardByPw[u]) {
			t.Fatalf("node %d's outgoing audibility changed with a jammer-only delta", u)
		}
	}
}

// TestJamDecisionZeroAllocs pins the strategy hot path's cost contract: with
// metrics disabled, building the observation and polling the emitter
// allocates nothing per decision.
func TestJamDecisionZeroAllocs(t *testing.T) {
	prev := obs.Default()
	obs.SetDefault(nil)
	defer obs.SetDefault(prev)

	tb := bed()
	cfg := baseConfig(tb)
	cfg.NumChannels = 3
	cfg.Jammers = []JammerNode{{Sender: 9,
		Strategy: mustStrategy(t, "learner"),
	}}
	top, flows, jams, err := normalize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs := newRunState(cfg, top, flows, jams)
	s := newShard(rs, 0)
	s.addJam(jams[0])
	jp := s.jams[0]
	// Put real transmissions on the air so the observation has content.
	f := frame.New(1, 0, 0, make([]byte, 120))
	s.commit(flows[0].src, 0, 10, f.AirChips())
	s.commit(flows[0].dst, 1, 20, f.AirChips())
	pollAt := jp.em.NextPoll()
	allocs := testing.AllocsPerRun(200, func() {
		o := s.observe(jp.spec.node, pollAt)
		jp.em.Poll(o)
	})
	if allocs != 0 {
		t.Errorf("jam decision allocates %v per poll, want 0", allocs)
	}
}

// TestJammerValidation covers the jammer configuration errors.
func TestJammerValidation(t *testing.T) {
	tb := bed()
	ok := baseConfig(tb)
	strat := fixedChannelJam{period: 10_000, ch: 0}
	cases := map[string]Config{
		"nil Strategy": func() Config {
			c := ok
			c.Jammers = []JammerNode{{Sender: 9}}
			return c
		}(),
		"no Topo": func() Config {
			c := ok
			c.Topo = nil
			c.Jammers = []JammerNode{{Sender: 9, Strategy: strat}}
			return c
		}(),
		"jammer on a flow's receiver": func() Config {
			c := ok
			c.Jammers = []JammerNode{{Sender: c.Flows[0].Receiver, Strategy: strat}}
			return c
		}(),
		"too many channels": func() Config { c := ok; c.NumChannels = 300; return c }(),
		"negative channels": func() Config { c := ok; c.NumChannels = -1; return c }(),
	}
	for name, cfg := range cases {
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	valid := ok
	valid.Jammers = []JammerNode{{Sender: 9, Strategy: strat, BurstBytes: 60}}
	res, err := Run(valid)
	if err != nil {
		t.Fatalf("strategy jammer rejected: %v", err)
	}
	if res.JamFrames == 0 {
		t.Error("strategy jammer never fired")
	}
}
