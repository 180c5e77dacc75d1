// Package fec implements a convolutional code with a soft-output Viterbi
// decoder — the second PHY design the paper's SoftPHY section contemplates:
// "a particularly interesting instance of a confidence metric when
// convolutional decoding is used ... is to use the output of the Viterbi
// decoder" (Sec. 3.1, citing SOVA [11]).
//
// The code is the industry-standard rate-1/2, constraint-length-7
// convolutional code (generators 171/133 octal, the K=7 code used by
// 802.11a, DVB and deep-space links). The decoder runs the classic
// add-compare-select recursion and, in the spirit of the soft-output
// Viterbi algorithm, tracks for every decoded bit the minimum metric margin
// of the ACS decisions that could have flipped it; that margin is the
// per-bit reliability.
//
// fec exists to demonstrate the paper's architectural claim (Sec. 3.3):
// higher layers consume hints through the same monotonic interface no
// matter which PHY produced them. The integration tests adapt the Viterbi
// reliabilities to the phy.Decision hint convention and run the PP-ARQ
// stack over them unchanged.
package fec

import (
	"fmt"
	"math"
	"math/bits"

	"ppr/internal/bitutil"
)

const (
	// K is the constraint length.
	K = 7
	// numStates is 2^(K-1).
	numStates = 1 << (K - 1)
	// Rate is the inverse code rate: output bits per input bit.
	Rate = 2
	// g0 and g1 are the generator polynomials (171, 133 octal).
	g0 = 0o171
	g1 = 0o133
)

// parity returns the parity of v.
func parity(v uint32) byte {
	return byte(bits.OnesCount32(v) & 1)
}

// outputs[state][inBit] packs the two coded bits produced when inBit enters
// the shift register at state.
var outputs [numStates][2]byte

func init() {
	for s := 0; s < numStates; s++ {
		for b := 0; b < 2; b++ {
			reg := uint32(b)<<(K-1) | uint32(s)
			o0 := parity(reg & g0)
			o1 := parity(reg & g1)
			outputs[s][b] = o0<<1 | o1
		}
	}
}

// Encode convolutionally encodes data bits (one bit per byte, values 0/1),
// appending K-1 zero tail bits to terminate the trellis. The output has
// 2·(len(bits)+K−1) coded bits.
func Encode(dataBits []byte) []byte {
	out := make([]byte, 0, Rate*(len(dataBits)+K-1))
	state := 0
	emit := func(b byte) {
		o := outputs[state][b&1]
		out = append(out, o>>1, o&1)
		state = (state >> 1) | int(b&1)<<(K-2)
	}
	for _, b := range dataBits {
		emit(b)
	}
	for i := 0; i < K-1; i++ {
		emit(0)
	}
	return out
}

// EncodedLen returns the coded length in bits for n data bits.
func EncodedLen(n int) int { return Rate * (n + K - 1) }

// Result is a soft-output decode: the data bits and a per-bit reliability.
type Result struct {
	// Bits are the decoded data bits (0/1), tail removed.
	Bits []byte
	// Reliability[i] is the metric margin protecting bit i: the smallest
	// path-metric difference among the trellis decisions that would have
	// flipped it. Larger means more confident. For hard-decision branch
	// metrics the unit is "channel bit flips".
	Reliability []float64
}

// butterflyBM[rx][j] is the Hamming distance between a received 2-bit
// branch symbol rx and the coded output of the transition predecessor-2j →
// successor-j (input bit 0), so the ACS recursion is pure table lookups.
// Both generators have their input-bit and oldest-bit taps set (g0, g1 are
// odd and ≥ 2^(K-1)), so flipping either the input bit or the
// predecessor's low bit complements BOTH coded bits: the other three
// branch metrics of the butterfly {2j, 2j+1} → {j, j+32} are
// 2 − butterflyBM[rx][j]. One table lookup serves all four branches.
var butterflyBM [4][numStates / 2]int32

func init() {
	for rx := 0; rx < 4; rx++ {
		for j := 0; j < numStates/2; j++ {
			butterflyBM[rx][j] = int32(bits.OnesCount8(byte(rx) ^ outputs[2*j][0]))
		}
	}
}

// Decode runs hard-decision Viterbi over coded bits (0/1 per byte) with
// SOVA-style reliability tracking. The coded stream must be a whole number
// of Rate-bit branches; decoding assumes the encoder's zero tail.
//
// The trellis state is flat: survivor decisions bit-pack into one uint64
// per step (64 states, one bit each), ACS margins live in a single backing
// array sized once, and the recursion walks successor states directly —
// each of the 64 next-states has exactly two predecessors, so one compare
// per state replaces the seed's per-transition bookkeeping. The
// reliability window is a monotonic-deque sliding minimum, O(n) instead of
// O(n·5K). Outputs are bit-identical to the seed's decoder: TestDecodeGolden
// pins the bits and reliabilities with a digest recorded when the two were
// proved equal.
func Decode(coded []byte) (Result, error) {
	if len(coded)%Rate != 0 {
		return Result{}, fmt.Errorf("fec: coded length %d not a multiple of %d", len(coded), Rate)
	}
	nBranches := len(coded) / Rate
	if nBranches < K-1 {
		return Result{}, fmt.Errorf("fec: %d branches shorter than the %d-bit tail", nBranches, K-1)
	}
	mSOVAInvocations.Get().Inc()
	mSOVABits.Get().Add(int64(nBranches - (K - 1)))
	const inf = math.MaxInt32 / 2

	var ma, mb [numStates]int32
	metric, next := &ma, &mb
	for s := 1; s < numStates; s++ {
		metric[s] = inf // trellis starts in state 0
	}
	// survivors[t] bit s records the predecessor decision bit for state s
	// at step t; deltas[t*numStates+s] the ACS margin at that decision.
	survivors := make([]uint64, nBranches)
	deltas := make([]int32, nBranches*numStates)

	// Successors j and j+32 share predecessors {2j, 2j+1}, and their four
	// branch metrics are a and 2−a for a single table value a (see
	// butterflyBM) — one lookup, two metric loads, two compares per
	// butterfly. The butterflies serve the K−1 warm-up steps too: there
	// every odd state (a p1 predecessor) is still unreachable, its metric
	// at least inf, so each state extends its p0 path with survivor bit 0
	// or stays unreachable. The margin against an unreachable competitor
	// is at least inf − metric: larger than any steady-state margin, so
	// every reliability window (which reaches step K−1) ignores it.
	for t := 0; t < nBranches; t++ {
		bm := &butterflyBM[(coded[t*Rate]<<1|coded[t*Rate+1])&0b11]
		dl := (*[numStates]int32)(deltas[t*numStates:])
		var sur uint64
		for j := 0; j < numStates/2; j++ {
			m0, m1 := metric[2*j], metric[2*j+1]
			a := bm[j]
			c := 2 - a
			// Branchless compare-select: on noisy input the ACS winner is
			// essentially random, so data-dependent branches mispredict half
			// the time; sign-mask arithmetic keeps the pipeline full. With
			// d = loser − winner candidate, mask = d>>31 is −1 when the
			// p1 path wins; then min = t0+(d&mask), |d| = (d^mask)−mask,
			// and the survivor bit is mask&1. Ties (d == 0) select the p0
			// path with delta 0, exactly the reference semantics.
			t0, t1 := m0+a, m1+c
			d := t1 - t0
			mask := d >> 31
			next[j] = t0 + d&mask
			dl[j] = (d ^ mask) - mask
			sur |= uint64(mask&1) << uint(j)
			t2, t3 := m0+c, m1+a
			d = t3 - t2
			mask = d >> 31
			next[j+numStates/2] = t2 + d&mask
			dl[j+numStates/2] = (d ^ mask) - mask
			sur |= uint64(mask&1) << uint(j+numStates/2)
		}
		survivors[t] = sur
		metric, next = next, metric
	}

	// Traceback from state 0 (zero tail terminates there).
	state := 0
	decided := make([]byte, nBranches)
	margins := make([]int32, nBranches)
	for t := nBranches - 1; t >= 0; t-- {
		// The input bit at step t is the top bit of the state at t+1.
		decided[t] = byte(state >> (K - 2) & 1)
		margins[t] = deltas[t*numStates+state]
		prevLow := int(survivors[t] >> uint(state) & 1)
		state = (state<<1 | prevLow) & (numStates - 1)
	}

	nData := nBranches - (K - 1)
	res := Result{
		Bits:        decided[:nData],
		Reliability: make([]float64, nData),
	}
	// SOVA-lite reliability: a decision at step t is protected by the ACS
	// margins along the surviving path in a window after t (a competing
	// path that would flip bit t must diverge at t and re-merge within
	// roughly 5K branches). Take the minimum margin over that window,
	// computed right to left with a monotonic deque: indices in the deque
	// carry strictly increasing margins front to back, the front is the
	// window minimum, and each index enters and leaves at most once, so
	// the whole post-processing pass is O(n).
	const window = 5 * K
	deque := make([]int32, 0, window) // margin values; indices tracked below
	idx := make([]int, 0, window)
	head := 0
	for i := nBranches - 1; i >= 0; i-- {
		for len(deque) > head && deque[len(deque)-1] >= margins[i] {
			deque = deque[:len(deque)-1]
			idx = idx[:len(idx)-1]
		}
		deque = append(deque, margins[i])
		idx = append(idx, i)
		if idx[head] >= i+window {
			head++
		}
		if i < nData {
			res.Reliability[i] = float64(deque[head])
		}
	}
	return res, nil
}

// Repairs runs the trellis on eight-bit path metrics, eight states per
// uint64 (lanes), updated in place. At step t, state s lives at location
// rotl₆(s, t mod 6): byte l%8 of word l/8 holds location l. Predecessors
// 2j and 2j+1 then sit at the two locations that differ in bit k = t mod 6,
// and so do their successors j and j+32 at step t+1 (rotl₆(2j, k) =
// rotl₆(j, k+1), and the successor's top bit rotates into bit k). So the
// new metric at every location is min(M + A, partner(M) + (2 − A)), where
// partner swaps the locations differing in bit k (bytes, 16-bit or 32-bit
// halves of a word for k < 3, whole words for k ≥ 3) and A holds, at each
// location, its butterfly's butterflyBM value: 8 words of adds, swaps and
// SWAR compares per step instead of 32 scalar butterflies.
//
// Eight bits are exact. Once K−1 steps have run from the trellis start,
// every state is reachable from the best state of K−1 steps earlier by K−1
// branches of cost at most 2, so every metric lies in [min, min+12]. Once
// per K−1-step cycle Repairs subtracts metric[0] − 12 from every lane when
// that is positive (metric[0] ≥ min keeps every lane non-negative), and
// lanes then stay at most 38. Before that, states the start cannot reach
// yet hold unreachableLane instead of Decode's MaxInt32/2. No reachable
// metric of the warm-up exceeds 12, so a capped state never wins a
// comparison it would lose uncapped, and it never grows past 114 (100 plus
// K−1 branches of 2) before every state is reachable. Lanes thus stay
// below 128, where the SWAR compare is exact. Only the strict comparison at state 0 reads metric
// values, and both the offset and the cap preserve its outcome, so Repairs
// answers exactly as Decode's int32 metrics would.
const (
	laneWords = numStates / 8
	laneOnes  = 0x0101010101010101
	laneHigh  = 0x8080808080808080
	// laneSpread bounds max − min of a fully reachable metric vector.
	laneSpread = 2 * (K - 1)
	// unreachableLane marks a state the trellis start cannot reach yet.
	unreachableLane = 100
)

// lanes holds the 64 path metrics at one step, a byte each.
type lanes [laneWords]uint64

// laneBM[k][rx] holds A and 2 − A at rotation k on the branch symbol rx:
// at every location, butterflyBM[rx][j] of the butterfly {2j, 2j+1} the
// location belongs to, and its complement.
var laneBM [K - 1][4][2]lanes

// cleanLanes[t] is the metric vector after t error-free steps from the
// trellis start, at rotation t mod 6, up to where the sequence repeats
// itself K−1 steps later: Repairs starts a damaged block at its first
// error from cleanLanes without replaying the clean prefix.
var cleanLanes []lanes

func init() {
	for k := range laneBM {
		for rx := range laneBM[k] {
			for l := 0; l < numStates; l++ {
				s := (l>>k | l<<(K-1-k)) & (numStates - 1) // rotr₆(l, k)
				bm := butterflyBM[rx][s>>1]
				laneBM[k][rx][0][l/8] |= uint64(bm) << (8 * (l % 8))
				laneBM[k][rx][1][l/8] |= uint64(2-bm) << (8 * (l % 8))
			}
		}
	}
	var m lanes
	for w := range m {
		m[w] = unreachableLane * laneOnes
	}
	m[0] &^= 0xFF // the trellis starts in state 0
	for t := 0; t < K-1 || m != cleanLanes[t-(K-1)]; t++ {
		cleanLanes = append(cleanLanes, m)
		m.step(t%(K-1), 0)
	}
}

// laneMin returns the lanewise min(x, y) of lanes below 128.
func laneMin(x, y uint64) uint64 {
	le := ((y | laneHigh) - x) & laneHigh // lanes where x ≤ y
	return y ^ (x^y)&(le-le>>7|le)
}

// step runs one ACS step at rotation k on the branch symbol rx, in place,
// and reports whether state 0 keeps its p0 predecessor: location 0 holds
// state 0 (p0), so it does iff its new lane is its old lane plus A.
func (m *lanes) step(k int, rx uint64) bool {
	a, b := &laneBM[k][rx][0], &laneBM[k][rx][1]
	x0 := byte(m[0] + a[0])
	switch k {
	case 0:
		for w, v := range m {
			m[w] = laneMin(v+a[w], (v&0x00FF00FF00FF00FF)<<8|(v>>8)&0x00FF00FF00FF00FF+b[w])
		}
	case 1:
		for w, v := range m {
			m[w] = laneMin(v+a[w], (v&0x0000FFFF0000FFFF)<<16|(v>>16)&0x0000FFFF0000FFFF+b[w])
		}
	case 2:
		for w, v := range m {
			m[w] = laneMin(v+a[w], bits.RotateLeft64(v, 32)+b[w])
		}
	default: // partners are whole words
		d, p := 1<<(k-3), *m
		for w := range m {
			m[w] = laneMin(p[w]+a[w], p[(w^d)&(laneWords-1)]+b[w])
		}
	}
	return byte(m[0]) == x0
}

// normalize subtracts metric[0] − laneSpread from every lane when that is
// positive, and returns what it subtracted. Once every state is reachable,
// no lane lies below metric[0] − laneSpread.
func (m *lanes) normalize() int {
	d := int(m[0]&0xFF) - laneSpread
	if d <= 0 {
		return 0
	}
	for i := range m {
		m[i] -= uint64(d) * laneOnes
	}
	return d
}

// Repairs reports whether hard-decision Viterbi decoding of the coded
// chips [lo, hi) yields all-zero data: exactly err == nil && every bit of
// Decode(coded bits lo..hi−1).Bits is 0, computed from path metrics alone.
// Decoding an error pattern through the linear code asks whether the
// decoder repaired it, and that is all the FEC recovery schemes need.
// Branch t is chips lo+2t (first coded bit) and lo+2t+1.
//
// Why metrics suffice: traceback starts in state 0, and ties keep the p0
// predecessor. A traceback that leaves state 0 at step t enters state 1,
// whose low bit is data bit t−K+1 (every bit shifts one place per step), so
// that data bit decodes to 1 — the zero tail cannot absorb it. The decoded
// data is therefore all zeros iff state 0 keeps its p0 predecessor at every
// step, and Repairs stops at the first step where it would not. It runs the
// same ACS recursion as Decode, on lanes (see above), with no survivors,
// margins, traceback or reliability pass, and allocates nothing.
//
// Error-free steps cannot move the traceback off state 0 (its p0 metric
// stays 0 while p1 costs at least 2), so a range with no set chip returns
// true before any trellis work, and a damaged one starts at the branch of
// its first set chip from cleanLanes. Branch symbols come off one 64-chip
// window per 32 steps: chips pack MSB-first, so w>>62 is a branch.
func Repairs(coded *bitutil.ChipWords, lo, hi int) bool {
	if (hi-lo)%Rate != 0 || (hi-lo)/Rate < K-1 {
		return false
	}
	first := coded.NextSet(lo, hi)
	if first == hi {
		return true
	}
	mRepairBlocks.Get().Inc()
	steps := mRepairSteps.Get()
	nBranches := (hi - lo) / Rate
	t0 := (first - lo) / Rate
	k := t0 % (K - 1)
	var m lanes
	if n := len(cleanLanes); t0 < n {
		m = cleanLanes[t0]
	} else {
		m = cleanLanes[n-(K-1)+(t0-n)%(K-1)] // the same rotation as t0
	}
	for t := t0; t < nBranches; {
		w := coded.Peek64(lo + Rate*t)
		for end := min(t+64/Rate, nBranches); t < end; t++ {
			if k == 0 {
				m.normalize()
			}
			if !m.step(k, w>>62) {
				steps.Add(int64(t + 1 - t0))
				return false
			}
			w <<= 2
			if k++; k == K-1 {
				k = 0
			}
		}
	}
	steps.Add(int64(nBranches - t0))
	return true
}
