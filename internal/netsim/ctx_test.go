package netsim

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"ppr/internal/leakcheck"
	"ppr/internal/radio"
	"ppr/internal/testbed"
)

func ctxTestConfig() Config {
	tb := testbed.New(radio.DefaultParams(), 1)
	return Config{
		Topo:         tb,
		Flows:        []Flow{bestFlow(tb, 0), bestFlow(tb, 5)},
		PacketBytes:  250,
		DurationSec:  0.5,
		CarrierSense: true,
		Seed:         1,
	}
}

// TestRunContextMatchesRun: an uncancelled context changes nothing.
func TestRunContextMatchesRun(t *testing.T) {
	cfg := ctxTestConfig()
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("RunContext result diverges from Run")
	}
}

// TestRunContextCancelDrainsFlows cancels a run mid-flight and requires a
// prompt ctx.Err() return with every flow coroutine gone — the engine must
// resume each blocked link layer with nil receptions until it gives up
// rather than abandoning it on a channel send. The shared leak guard
// (stack-filtered, not a raw goroutine count) asserts the drain.
func TestRunContextCancelDrainsFlows(t *testing.T) {
	defer leakcheck.Check(t)()

	cfg := ctxTestConfig()
	cfg.DurationSec = 30 // long enough that cancellation lands mid-run
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := RunContext(ctx, cfg)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunContext did not return after cancellation")
	}
}

// TestRunContextPreCancelled: cancellation before the first event still
// winds the already-started flow coroutines down cleanly.
func TestRunContextPreCancelled(t *testing.T) {
	defer leakcheck.Check(t)()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, ctxTestConfig()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
