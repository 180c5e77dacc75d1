package leakcheck

import (
	"strings"
	"testing"
	"time"
)

// TestNoLeakPasses: a test that starts and stops its goroutines is clean.
func TestNoLeakPasses(t *testing.T) {
	snap := Take()
	done := make(chan struct{})
	stop := make(chan struct{})
	go func() { <-stop; close(done) }()
	close(stop)
	<-done
	if leaked := snap.Settle(2 * time.Second); len(leaked) > 0 {
		t.Fatalf("false positive: %d goroutines reported leaked", len(leaked))
	}
}

// TestLeakDetected: a goroutine that outlives the test is caught, with its
// stack in the report.
func TestLeakDetected(t *testing.T) {
	snap := Take()
	stop := make(chan struct{})
	defer close(stop)
	started := make(chan struct{})
	go func() { close(started); <-stop }() // deliberately still alive at check time
	<-started
	leaked := snap.Settle(50 * time.Millisecond)
	if len(leaked) != 1 {
		t.Fatalf("leaked = %d goroutines, want 1", len(leaked))
	}
	if !strings.Contains(leaked[0].stack, "leakcheck.TestLeakDetected") {
		t.Fatalf("leak report missing creator stack:\n%s", leaked[0].stack)
	}
}

// TestSettleWaitsForWindDown: goroutines already on their way out are not
// reported.
func TestSettleWaitsForWindDown(t *testing.T) {
	snap := Take()
	go func() { time.Sleep(100 * time.Millisecond) }()
	if leaked := snap.Settle(2 * time.Second); len(leaked) > 0 {
		t.Fatalf("winding-down goroutine reported as leak")
	}
}

// TestIgnoredFilters: harness goroutines never count as leaks even from an
// empty snapshot.
func TestIgnoredFilters(t *testing.T) {
	empty := Snapshot{ids: map[int64]bool{}}
	for _, g := range empty.Leaked() {
		for _, s := range ignoredSubstrings {
			if strings.Contains(g.stack, s) {
				t.Fatalf("ignored goroutine reported:\n%s", g.stack)
			}
		}
	}
}

// TestSiblingGoroutinesNotAttributed: goroutines descending from another
// test's goroutine — a parallel sibling holding its sessions open — are not
// this test's leaks, even when they start after this test's snapshot; a
// goroutine of the test's own still is.
func TestSiblingGoroutinesNotAttributed(t *testing.T) {
	spawn := make(chan struct{})
	spawned := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	t.Run("sibling", func(t *testing.T) {
		Take() // the sibling's own check
		// A long-lived worker of the sibling that opens a session on demand.
		go func() {
			<-spawn
			go func() { <-release }()
			close(spawned)
			<-release
		}()
	})
	t.Run("checker", func(t *testing.T) {
		snap := Take()
		close(spawn)
		<-spawned
		if leaked := snap.Settle(50 * time.Millisecond); len(leaked) > 0 {
			t.Fatalf("sibling's goroutine attributed to this test:\n%s", leaked[0].stack)
		}
		stop := make(chan struct{})
		defer close(stop)
		go func() { <-stop }() // this test's own leak
		leaked := snap.Settle(50 * time.Millisecond)
		if len(leaked) != 1 || !strings.Contains(leaked[0].stack, "TestSiblingGoroutinesNotAttributed.func2") {
			t.Fatalf("own leak not reported exactly once: %d goroutine(s)", len(leaked))
		}
	})
}
