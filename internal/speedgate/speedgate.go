// Package speedgate measures how much faster an optimized implementation
// runs than its frozen reference, for the ratio gates that keep hot paths
// from regressing. Timing the two back to back lets a burst of load from
// another process (a sibling test package on a small machine) land on one
// side only; timing them in alternating rounds and comparing medians makes
// both sides see the same load, so the gate measures the code, not the
// neighbours.
package speedgate

import (
	"runtime"
	"time"

	"ppr/internal/stats"
)

// Rounds is the number of timed rounds per side, and roundTime the target
// wall time of one. Many short rounds interleave the two sides finely, so
// a load burst lands on both; the median discards the rounds it distorts.
const (
	Rounds    = 21
	roundTime = 10 * time.Millisecond
)

// Result is one interleaved comparison.
type Result struct {
	// FastNs and RefNs are the median ns/op over the rounds.
	FastNs, RefNs float64
	// Ratio is RefNs / FastNs: how many times faster fast ran.
	Ratio float64
}

// Compare times fast and ref in interleaved rounds — fast, ref, fast,
// ref, … — Rounds of each, and compares their median ns/op. Each side's
// iteration count is calibrated once so a round lasts about roundTime.
func Compare(fast, ref func()) Result {
	nFast, nRef := calibrate(fast), calibrate(ref)
	fastNs := make([]float64, Rounds)
	refNs := make([]float64, Rounds)
	for i := 0; i < Rounds; i++ {
		fastNs[i] = timeOp(fast, nFast)
		refNs[i] = timeOp(ref, nRef)
	}
	r := Result{FastNs: stats.Median(fastNs), RefNs: stats.Median(refNs)}
	r.Ratio = r.RefNs / r.FastNs
	return r
}

// calibrate runs f once to warm it up and returns the iteration count
// that fills one round.
func calibrate(f func()) int {
	start := time.Now()
	f()
	n := int(roundTime / max(time.Since(start), time.Microsecond))
	return max(n, 1)
}

// timeOp runs f n times and returns its mean ns/op. Like testing.Benchmark
// it collects garbage first, so one side's garbage is not charged to the
// other side's round.
func timeOp(f func(), n int) float64 {
	runtime.GC()
	start := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}
