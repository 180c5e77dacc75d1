package interleave

import (
	"bytes"
	"testing"

	"ppr/internal/bitutil"
	"ppr/internal/fec"
	"ppr/internal/stats"
)

// refPermute is the byte-per-bit reference permutation: each whole tile is
// written row-major and read column-major (forward) or the inverse; a
// trailing partial tile passes through.
func refPermute(b Block, data []byte, forward bool) []byte {
	out := append([]byte(nil), data...)
	for blk := 0; blk+b.Size() <= len(data); blk += b.Size() {
		for r := 0; r < b.rows; r++ {
			for c := 0; c < b.cols; c++ {
				rowMajor, colMajor := blk+r*b.cols+c, blk+c*b.rows+r
				if forward {
					out[colMajor] = data[rowMajor]
				} else {
					out[rowMajor] = data[colMajor]
				}
			}
		}
	}
	return out
}

// reused is the one buffer every deinterleave call writes into, as a
// scoring worker reuses one: a result that depended on what an earlier,
// longer or denser stream left behind would fail the comparisons.
var reused bitutil.ChipWords

// deinterleave runs the packed DeinterleaveInto on a byte-per-bit stream.
func deinterleave(b Block, bits []byte) []byte {
	b.DeinterleaveInto(&reused, bitutil.PackChipBytes(bits))
	return reused.Bytes()
}

func TestRoundTrip(t *testing.T) {
	rng := stats.NewRNG(1)
	for _, geom := range [][2]int{{1, 1}, {4, 8}, {16, 16}, {32, 5}} {
		b := New(geom[0], geom[1])
		for blocks := 1; blocks <= 3; blocks++ {
			data := make([]byte, b.Size()*blocks)
			for i := range data {
				data[i] = byte(rng.Intn(2))
			}
			got := deinterleave(b, refPermute(b, data, true))
			if !bytes.Equal(got, data) {
				t.Fatalf("%dx%d x%d blocks: round trip failed", geom[0], geom[1], blocks)
			}
		}
	}
}

// TestInterleaveIsPermutation moves one set chip through every channel
// position of two tiles: each must land on a distinct position.
func TestInterleaveIsPermutation(t *testing.T) {
	b := New(8, 16)
	seen := make([]bool, 2*b.Size())
	for p := range seen {
		chips := bitutil.NewChipWords(len(seen))
		chips.SetBit(p, 1)
		out := new(bitutil.ChipWords)
		b.DeinterleaveInto(out, chips)
		q := out.NextSet(0, out.Len())
		if q == out.Len() || out.NextSet(q+1, out.Len()) != out.Len() || seen[q] {
			t.Fatalf("channel chip %d: not exactly one set chip out, first at %d (seen %v)", p, q, seen[q])
		}
		seen[q] = true
	}
}

// TestDeinterleaveMatchesReference checks the packed deinterleaver against
// the byte-per-bit reference: rows and columns below, at and above the
// 32×32 transpose block (so partial blocks at every edge), the default
// 32×48 geometry among them; streams of no tile, a tile less a chip
// (copied through), whole tiles and trailing partial tiles; and clean,
// sparse plus a burst, half-set and all-ones patterns; all into one
// reused buffer.
func TestDeinterleaveMatchesReference(t *testing.T) {
	rng := stats.NewRNG(24)
	var geoms [][2]int
	for _, rows := range []int{1, 7, 31, 32, 33, 64, 70, 96} {
		for _, cols := range []int{1, 31, 32, 48, 65} {
			geoms = append(geoms, [2]int{rows, cols})
		}
	}
	geoms = append(geoms, [2]int{96, 5}, [2]int{70, 3}, [2]int{24, 7}, [2]int{5, 3}, [2]int{16, 32})
	for _, geom := range geoms {
		b := New(geom[0], geom[1])
		for _, n := range []int{0, b.Size() - 1, b.Size(), 2*b.Size() + 17, 3 * b.Size()} {
			for _, density := range []float64{0, 0.01, 0.5, 1} {
				bits := make([]byte, n)
				for i := range bits {
					if rng.Bool(density) {
						bits[i] = 1
					}
				}
				if n > 40 && density == 0.01 { // plus a burst
					start := rng.Intn(n - 40)
					for i := start; i < start+40; i++ {
						bits[i] = 1
					}
				}
				if got, want := deinterleave(b, bits), refPermute(b, bits, false); !bytes.Equal(got, want) {
					t.Fatalf("%dx%d, %d chips, density %v: packed deinterleave differs from reference", geom[0], geom[1], n, density)
				}
			}
		}
	}
}

func TestBurstSpreading(t *testing.T) {
	// A contiguous channel burst of length ≤ rows must land ≥ rows apart
	// after deinterleaving: no two errors adjacent.
	b := New(16, 32)
	tx := bitutil.NewChipWords(b.Size())
	// Burst of 16 chips mid-stream.
	for i := 100; i < 116; i++ {
		tx.SetBit(i, 1)
	}
	rx := new(bitutil.ChipWords)
	b.DeinterleaveInto(rx, tx)
	var errPos []int
	for p := rx.NextSet(0, rx.Len()); p < rx.Len(); p = rx.NextSet(p+1, rx.Len()) {
		errPos = append(errPos, p)
	}
	if len(errPos) != 16 {
		t.Fatalf("%d errors after deinterleave, want 16", len(errPos))
	}
	for i := 1; i < len(errPos); i++ {
		if gap := errPos[i] - errPos[i-1]; gap < b.rows {
			t.Fatalf("errors %d and %d only %d apart (rows=%d)", errPos[i-1], errPos[i], gap, b.rows)
		}
	}
}

// Pad returns data extended with zeros to the next multiple of Size(),
// and the original length for truncation after deinterleaving: the
// byte-per-bit transmitter side the tests interleave with refPermute.
func (b Block) Pad(data []byte) (padded []byte, origLen int) {
	origLen = len(data)
	rem := len(data) % b.Size()
	if rem == 0 {
		return data, origLen
	}
	padded = make([]byte, len(data)+b.Size()-rem)
	copy(padded, data)
	return padded, origLen
}

func TestPad(t *testing.T) {
	b := New(4, 4)
	padded, orig := b.Pad(make([]byte, 21))
	if orig != 21 || len(padded) != 32 {
		t.Errorf("padded to %d (orig %d)", len(padded), orig)
	}
	exact, _ := b.Pad(make([]byte, 16))
	if len(exact) != 16 {
		t.Error("exact multiple should not pad")
	}
}

func TestGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, 5)
}

// TestInterleavingRescuesConvolutionalCode quantifies the Sec. 8.3
// trade-off: a burst that defeats the K=7 code directly becomes correctable
// once interleaved deeply enough — and stays fatal when the interleaver is
// under-provisioned, the a-priori-knowledge problem the paper points out.
func TestInterleavingRescuesConvolutionalCode(t *testing.T) {
	rng := stats.NewRNG(2)
	payloadBits := make([]byte, 3000)
	for i := range payloadBits {
		payloadBits[i] = byte(rng.Intn(2))
	}
	coded := fec.Encode(payloadBits)

	run := func(ilv *Block, burstLen int) int {
		tx := append([]byte(nil), coded...)
		var origLen int
		if ilv != nil {
			tx, origLen = ilv.Pad(tx)
			tx = refPermute(*ilv, tx, true)
		}
		// One contiguous burst of flips.
		lo := len(tx) / 3
		for i := lo; i < lo+burstLen && i < len(tx); i++ {
			tx[i] ^= 1
		}
		if ilv != nil {
			tx = deinterleave(*ilv, tx)[:origLen]
		}
		res, err := fec.Decode(tx)
		if err != nil {
			t.Fatal(err)
		}
		errs := 0
		for i := range payloadBits {
			if res.Bits[i] != payloadBits[i] {
				errs++
			}
		}
		return errs
	}

	const burst = 60
	direct := run(nil, burst)
	if direct == 0 {
		t.Fatal("a 60-bit burst should defeat the bare code")
	}
	deep := New(128, 64)
	if errs := run(&deep, burst); errs != 0 {
		t.Errorf("deep interleaver left %d errors for a %d-bit burst", errs, burst)
	}
	shallow := New(8, 64)
	if errs := run(&shallow, burst); errs == 0 {
		t.Error("under-provisioned interleaver unexpectedly corrected the burst")
	}
	t.Logf("burst %d: direct %d errors, deep interleave 0, shallow interleave >0", burst, direct)
}
