package main

import (
	"math"
	"runtime"
	"testing"
	"time"

	"ppr/internal/obs"
)

// TestStageTimesSumToWall is the "stage times sum to wall" check: in a
// traced run on one worker and one CPU, the spans around the benchmark's
// layer calls and the CPU profile's buckets must each account for the
// timed phase's wall time to within a tenth.
func TestStageTimesSumToWall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload at paper scale")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	obs.SetDefault(obs.New())
	defer obs.SetDefault(nil)

	for _, name := range []string{"figures", "fig17", "serve"} {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			switch w := w.(type) {
			case *figures:
				w.gainRuns = 1
			case *fig17:
				w.gainRuns = 1
			}
			defer w.close()
			if err := w.setup(); err != nil {
				t.Fatal(err)
			}
			p, sp, d, err := tracedPhase(w, 500*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if p.failed != 0 {
				t.Fatalf("%d of %d ops failed", p.failed, p.tally.attempted)
			}
			wall := p.wall.Seconds()
			spanCover := sp.leafSeconds() / (wall * float64(sp.busyLanes()))
			profCover := float64(d.cpuNanos) / 1e9 / wall
			sum := 0.0
			for _, b := range buckets {
				sum += d.shares[b]
			}
			t.Logf("wall %.2fs: spans cover %.3f, profile covers %.3f, bucket shares sum %.3f",
				wall, spanCover, profCover, sum)
			if math.Abs(spanCover-1) > 0.1 {
				t.Errorf("layer spans cover %.3f of the timed wall time, want 1 ± 0.1", spanCover)
			}
			if math.Abs(profCover-1) > 0.1 {
				t.Errorf("CPU profile covers %.3f of the timed wall time, want 1 ± 0.1", profCover)
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("bucket shares sum to %v, want 1", sum)
			}
		})
	}
}

// TestClassify pins the self-time buckets of representative stacks.
func TestClassify(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"ppr/internal/frame.AppendSyncs", "ppr/internal/frame.(*Receiver).Receive"}, bucketSync},
		{[]string{"ppr/internal/bitutil.(*ChipWords).Word32", "ppr/internal/frame.(*Receiver).decode"}, bucketDespread},
		{[]string{"runtime.memmove", "ppr/internal/radio.Synthesize"}, "radio"},
		{[]string{"ppr/internal/core/chunkdp.Plan", "ppr/internal/core/pparq.(*Sender).Serve"}, "core"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, bucketGC},
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}, bucketSched},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.write", "net.(*conn).Write", "ppr/internal/wire.(*Encoder).Flush"}, "wire"},
		{[]string{"ppr/internal/topo.(*Topology).Gain", "ppr/internal/netsim.(*shard).step"}, "netsim"},
		{[]string{"main.(*serve).flowCycle"}, bucketOther},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// TestServeGainRepeats runs the serve workload twice on one seed: every
// transfer must verify, and pp_gain — taken over a fixed prefix of flows
// on a channel keyed on (seed, connection, flow, direction, frame index) —
// must repeat exactly, whatever the goroutine interleaving.
func TestServeGainRepeats(t *testing.T) {
	var gains []gainAir
	for range 2 {
		s := &serve{seed: 7, conns: 2}
		if err := s.setup(); err != nil {
			t.Fatal(err)
		}
		tl, err := s.run(time.Now().Add(100*time.Millisecond), nil, nil)
		s.close()
		if err != nil {
			t.Fatal(err)
		}
		if tl.ok != tl.attempted || tl.ok == 0 {
			t.Fatalf("%d of %d transfers verified", tl.ok, tl.attempted)
		}
		gains = append(gains, s.gain)
	}
	if gains[0] != gains[1] || gains[0].pp == 0 {
		t.Errorf("pp_gain air bytes differ between runs of one seed: %+v vs %+v", gains[0], gains[1])
	}
}

// TestHostSpeedScaling checks that a run's host speed is the reference
// probe time over the median probe, and that scaling a tally multiplies
// every time in it and nothing else.
func TestHostSpeedScaling(t *testing.T) {
	if got := (*speedometer)(nil).speed(); got != 1 {
		t.Errorf("nil speedometer speed = %v, want 1", got)
	}
	sm := &speedometer{times: []float64{0.004, 2 * refProbe.Seconds(), 0.1}}
	if got := sm.speed(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("speed = %v, want 0.5", got)
	}
	tl := tally{attempted: 3, ok: 2, windows: []window{{ok: 2, wall: 4 * time.Second, cpu: 6 * time.Second, latencies: []float64{10, 20}}}}
	got := tl.scaled(0.5)
	w := got.windows[0]
	if got.attempted != 3 || got.ok != 2 || w.ok != 2 || w.wall != 2*time.Second || w.cpu != 3*time.Second || w.latencies[0] != 5 || w.latencies[1] != 10 {
		t.Errorf("scaled(0.5) = %+v", got)
	}
	if tl.windows[0].latencies[0] != 10 {
		t.Errorf("scaled changed the original tally")
	}
	if s := newSpeedometer(newHostProbe(2)).speed(); !(s > 0) || math.IsInf(s, 0) {
		t.Errorf("probe speed = %v, want a positive finite number", s)
	}
}
