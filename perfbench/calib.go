package main

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"time"

	"ppr/internal/stats"
)

// hostProbe measures how fast the host runs, so that the benchmark can
// report its times at one fixed host speed.
//
// The benchmark runs on a few virtual CPUs of a shared machine whose speed
// drifts by tens of percent over minutes: the same deterministic work takes
// a different CPU time from one run to the next. A probe runs a fixed Go
// kernel that does not touch the program — random keys through a map,
// small allocations, a sort, float math and bit counting, the mix of work
// the simulator does — on as many goroutines as the workload has workers. The
// run probes the host between its set-ups and between its windows, while
// the workload is idle, and multiplies every time it reports by its host
// speed: refProbe over the median probe time. On a host where the probe
// takes refProbe, reported times are wall-clock times; on one running a
// fifth slower, they are the wall-clock times shortened by that fifth. A
// change to the program moves the workload's times and not the probe's, so
// it still shows in full.
//
// Single probes are noisy (a probe lasts milliseconds, a window seconds), so
// only the run's median is used: it tracks the slow drift that moves whole
// runs, which is what spreads one run's figures from the next.
type hostProbe struct {
	tables [][]uint64 // one per worker
	sink   []uint64
}

const (
	// probeRounds and probeSteps size one kernel pass per goroutine.
	probeRounds = 8
	probeSteps  = 1 << 18
	// probeWords is each goroutine's table, 32 KiB: it stays in L1, so
	// that part of the kernel times the core alone.
	probeWords = 1 << 12
	// probeRepeats passes make one probe; its time is their median.
	probeRepeats = 7
	// refProbe is one pass's wall time on the reference host, an idle
	// 2-vCPU Intel Xeon VM at 2.0 GHz: the host speed reported times are
	// scaled to.
	refProbe = 4800 * time.Microsecond
)

func newHostProbe(workers int) *hostProbe {
	p := &hostProbe{tables: make([][]uint64, max(workers, 1)), sink: make([]uint64, max(workers, 1))}
	for i := range p.tables {
		t := make([]uint64, probeWords)
		x := uint64(i + 1)
		for j := range t {
			x = xorshift(x)
			t[j] = x
		}
		p.tables[i] = t
	}
	return p
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

type probeNode struct {
	a, b uint64
	next *probeNode
}

// pass runs the kernel once: probeSteps dependent reads and writes at
// random places in table t with a popcount and a float recurrence, then
// probeRounds rounds of a sort of 2048 random ints and 2048 random keys
// through a map, with a list node allocated for one key in eight and float
// math on one in four.
func pass(t []uint64) uint64 {
	x, acc, f := t[0]|1, uint64(0), 1.0
	for range probeSteps {
		x = xorshift(x)
		i := x & (probeWords - 1)
		v := t[i]
		t[i] = v ^ x>>3
		acc += uint64(bits.OnesCount64(v ^ x))
		f = f*0.9999 + float64(v>>40)*1e-12
	}
	m := make(map[uint64]uint64, 1024)
	xs := make([]int, 2048)
	for range probeRounds {
		for j := range xs {
			x = xorshift(x)
			xs[j] = int(x >> 40)
		}
		sort.Ints(xs)
		var head *probeNode
		for range 2048 {
			x = xorshift(x)
			k := x & 4095
			m[k] += x
			if x&7 == 0 {
				head = &probeNode{a: x, b: k, next: head}
			}
			if x&3 == 1 {
				f += math.Sin(float64(x>>44)) * math.Exp(-float64(k)/4096)
			}
		}
		for n := head; n != nil; n = n.next {
			acc += n.a ^ n.b
		}
		acc += uint64(xs[len(xs)/2]) + uint64(len(m))
	}
	return acc ^ math.Float64bits(f)
}

// time runs one probe and returns its time in seconds: the median of
// probeRepeats passes, each run on every worker at once.
func (p *hostProbe) time() float64 {
	ds := make([]float64, probeRepeats)
	for r := range ds {
		var wg sync.WaitGroup
		t0 := time.Now()
		for i, t := range p.tables {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.sink[i] += pass(t)
			}()
		}
		wg.Wait()
		ds[r] = time.Since(t0).Seconds()
	}
	return stats.MedianOrZero(ds)
}

// speedometer collects one run's probes. A nil speedometer probes nothing
// and reports speed 1.
type speedometer struct {
	p     *hostProbe
	times []float64
}

// newSpeedometer takes the run's first probe. Without a probe it returns
// nil.
func newSpeedometer(p *hostProbe) *speedometer {
	if p == nil {
		return nil
	}
	s := &speedometer{p: p}
	s.probe()
	return s
}

// probe times the host once more; call it while the workload is idle.
func (s *speedometer) probe() {
	if s != nil {
		s.times = append(s.times, s.p.time())
	}
}

// speed is the run's host speed: refProbe over its median probe time, 1 on
// the reference host and below 1 on a slower one.
func (s *speedometer) speed() float64 {
	if s == nil || len(s.times) == 0 {
		return 1
	}
	return refProbe.Seconds() / stats.MedianOrZero(s.times)
}
