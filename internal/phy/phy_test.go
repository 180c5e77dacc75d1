package phy

import (
	"bytes"
	"testing"
	"testing/quick"
	"unsafe"

	"ppr/internal/bitutil"
	"ppr/internal/chipseq"
	"ppr/internal/stats"
)

func TestSpreadDecodeRoundTripClean(t *testing.T) {
	f := func(data []byte) bool {
		ds := DecodeStream(HardDecoder{}, SpreadPacked(data))
		syms := make([]byte, len(ds))
		for i, d := range ds {
			if d.Hint != 0 {
				return false
			}
			syms[i] = d.Symbol
		}
		return bytes.Equal(bitutil.BytesFromNibbles(syms), data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSpreadPackedMatchesBytePath checks the transmit table against the
// codeword-by-codeword spread, chip by chip: every single byte, then
// random buffers.
func TestSpreadPackedMatchesBytePath(t *testing.T) {
	// reused is one buffer that SpreadInto rewrites for every input, left
	// dirty in between, as a radio head's pooled chip words are.
	var reused bitutil.ChipWords
	check := func(data []byte) {
		t.Helper()
		got, want := SpreadPacked(data), bitutil.PackChipBytes(ChipsOf(SpreadBytes(data)))
		if got.Len() != want.Len() || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("SpreadPacked(% x) diverges from the codeword path", data[:min(len(data), 8)])
		}
		SpreadInto(&reused, data)
		if reused.Len() != want.Len() || !bytes.Equal(reused.Bytes(), want.Bytes()) {
			t.Fatalf("SpreadInto(% x) on a reused buffer diverges from the codeword path", data[:min(len(data), 8)])
		}
		reused.Fill(0, reused.Len(), 1)
	}
	for b := 0; b < 256; b++ {
		check([]byte{byte(b)})
	}
	rng := stats.NewRNG(21)
	for _, n := range []int{0, 2, 3, 17, 1500, 5} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		check(data)
	}
}

func TestSpreadBytesTwoCodewordsPerByte(t *testing.T) {
	if n := len(SpreadBytes(make([]byte, 10))); n != 20 {
		t.Errorf("got %d codewords, want 20", n)
	}
}

func TestChipsOfLength(t *testing.T) {
	cws := SpreadBytes([]byte{0xff})
	chips := ChipsOf(cws)
	if len(chips) != 64 {
		t.Errorf("got %d chips, want 64", len(chips))
	}
}

func TestPackChipsInverse(t *testing.T) {
	for s := byte(0); s < chipseq.NumSymbols; s++ {
		chips := ChipsOf([]uint32{chipseq.Codeword(s)})
		if got := PackChips(chips, 0); got != chipseq.Codeword(s) {
			t.Errorf("symbol %d: pack/unpack mismatch", s)
		}
	}
}

func TestPackChipsPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PackChips(make([]byte, 31), 0)
}

func TestHardDecoderHintIsDistance(t *testing.T) {
	rng := stats.NewRNG(1)
	for trial := 0; trial < 200; trial++ {
		s := byte(rng.Intn(16))
		cw := chipseq.Codeword(s)
		nflips := rng.Intn(4)
		seen := map[int]bool{}
		for len(seen) < nflips {
			seen[rng.Intn(32)] = true
		}
		for i := range seen {
			cw ^= 1 << uint(31-i)
		}
		d := HardDecoder{}.Decode(cw)
		if d.Symbol != s {
			t.Fatalf("decoded %d want %d", d.Symbol, s)
		}
		if int(d.Hint) != nflips {
			t.Fatalf("hint %v want %d", d.Hint, nflips)
		}
	}
}

// TestDecisionIsTwoBytes pins the trace's per-symbol cost: the simulator
// keeps one Decision per received symbol.
func TestDecisionIsTwoBytes(t *testing.T) {
	if n := unsafe.Sizeof(Decision{}); n != 2 {
		t.Errorf("Decision is %d bytes, want 2", n)
	}
}

func TestMatchedFilterScale(t *testing.T) {
	// MF hint = 2× the HDD hint on equivalent observations — a different
	// scale, same ordering (the monotonicity contract is about order only).
	cw := chipseq.Codeword(3) ^ 0x80000001 // 2 chip errors
	hd := HardDecoder{}.Decode(cw)
	mf := MatchedFilterDecoder{}.Decode(cw)
	if mf.Symbol != hd.Symbol {
		t.Fatalf("symbols disagree")
	}
	if mf.Hint != 2*hd.Hint {
		t.Errorf("mf hint %v, want %v", mf.Hint, 2*hd.Hint)
	}
}

func TestMonotonicityContractUnderNoise(t *testing.T) {
	// Statistically: symbols decoded from noisier chips must carry larger
	// (less confident) hints on average, for every decoder.
	rng := stats.NewRNG(3)
	for _, dec := range []Decoder{HardDecoder{}, MatchedFilterDecoder{}} {
		meanHint := func(pChip float64) float64 {
			var sum float64
			const n = 400
			for i := 0; i < n; i++ {
				cw := chipseq.Codeword(byte(rng.Intn(16)))
				for j := 0; j < chipseq.ChipsPerSymbol; j++ {
					if rng.Bool(pChip) {
						cw ^= 1 << uint(31-j)
					}
				}
				sum += float64(dec.Decode(cw).Hint)
			}
			return sum / n
		}
		clean, noisy := meanHint(0.01), meanHint(0.30)
		if clean >= noisy {
			t.Errorf("%s: mean hint clean %v >= noisy %v; monotonicity violated",
				dec.Name(), clean, noisy)
		}
	}
}

func TestDecodeStreamIgnoresTrailingChips(t *testing.T) {
	chips := ChipsOf(SpreadBytes([]byte{0xab}))
	chips = append(chips, 1, 0, 1) // ragged tail
	ds := DecodeStream(HardDecoder{}, bitutil.PackChipBytes(chips))
	if len(ds) != 2 {
		t.Errorf("got %d decisions, want 2", len(ds))
	}
}

func TestDecoderNames(t *testing.T) {
	if (HardDecoder{}).Name() != "hdd" || (MatchedFilterDecoder{}).Name() != "mf" {
		t.Error("unexpected decoder names")
	}
}

func TestRandomChipsDecodeToLargeHints(t *testing.T) {
	// Uniform random chips (what a collision with a much stronger packet
	// looks like, relative to the weaker packet's codewords) must mostly
	// produce hints well above the correct-decode regime — this is the
	// separation Fig. 3 depends on.
	rng := stats.NewRNG(4)
	const n = 2000
	large := 0
	for i := 0; i < n; i++ {
		d := HardDecoder{}.Decode(uint32(rng.Uint64()))
		if d.Hint >= 6 {
			large++
		}
	}
	if frac := float64(large) / n; frac < 0.80 {
		t.Errorf("only %.2f of random codewords had hint >= 6", frac)
	}
}
