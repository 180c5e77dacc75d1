package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"ppr/internal/radio"
	"ppr/internal/testbed"
)

func ctxTestConfig(workers int) Config {
	return Config{
		Testbed:      testbed.New(radio.DefaultParams(), 1),
		OfferedBps:   6900,
		PacketBytes:  150,
		DurationSec:  1.5,
		CarrierSense: false,
		Seed:         1,
		Workers:      workers,
	}
}

// TestRunContextMatchesRun: an uncancelled context changes nothing — the
// trace is bit-identical to Run's, on one worker and on four.
func TestRunContextMatchesRun(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfg := ctxTestConfig(workers)
		txs1, outs1 := Run(cfg)
		txs2, outs2, err := RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(txs1, txs2) || !reflect.DeepEqual(outs1, outs2) {
			t.Fatalf("workers=%d: RunContext trace diverges from Run", workers)
		}
	}
}

// TestDeliverContextCancelled: a cancelled context aborts delivery with
// ctx.Err() on a pool of one worker and of four, leaving no worker
// goroutine behind (the race job would flag one touching test state).
func TestDeliverContextCancelled(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfg := ctxTestConfig(workers)
		txs := Schedule(cfg)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		outs, err := DeliverContext(ctx, cfg, txs)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if outs != nil {
			t.Errorf("workers=%d: partial trace returned on cancellation", workers)
		}
	}
}
