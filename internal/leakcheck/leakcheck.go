// Package leakcheck is the shared goroutine-leak guard for tests of the
// long-running machinery (linkserv sessions and servers, netsim's flow
// coroutines). It snapshots the live goroutines at test start and fails
// the test if, after a settling deadline, goroutines that did not exist
// before are still alive — filtered by stack, so runtime and test-harness
// goroutines never count.
//
// A new goroutine counts against the test only if it is the test's own:
// leakcheck walks each goroutine's "created by … in goroutine N" ancestry,
// and a goroutine whose ancestry reaches another test's goroutine without
// passing through this test's belongs to that test — a parallel sibling
// holding its sessions open is not this test's leak. Ancestry is
// remembered process-wide across every dump any check takes, so chains
// survive creators that have since exited; a chain that cannot be traced
// to any test goroutine still counts against the test.
//
// Usage:
//
//	func TestServer(t *testing.T) {
//		defer leakcheck.Check(t)()
//		...
//	}
//
// or equivalently leakcheck.CheckCleanup(t) to hook t.Cleanup.
package leakcheck

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// ignoredSubstrings mark goroutines that belong to the runtime, the test
// harness, or process-lifetime singletons: their appearance is not a leak.
var ignoredSubstrings = []string{
	"testing.RunTests",
	"testing.(*T).Run",
	"testing.(*M).",
	"testing.runFuzzing",
	"testing.tRunner.func",
	"runtime.goexit0",
	"runtime.MHeap_Scavenger",
	"runtime.gc",
	"os/signal.signal_recv",
	"os/signal.loop",
	"runtime/pprof.readProfile",
	"runtime/trace.Start",
	"net/http.(*persistConn)", // keep-alive pool, process-lifetime
	"go.itab",
}

// goroutine is one parsed entry of a full runtime.Stack dump.
type goroutine struct {
	id     int64
	parent int64 // from "created by … in goroutine N"; 0 if absent
	stack  string
}

// origin is what the lineage memory keeps of a goroutine: its creator and
// whether it is a test's own goroutine.
type origin struct {
	parent int64
	test   bool
}

// lineage remembers the origin of every goroutine any dump has seen.
// Goroutine IDs are never reused, so entries stay valid after the
// goroutine exits.
var lineage = struct {
	sync.Mutex
	m map[int64]origin
}{m: map[int64]origin{}}

// stacks captures and parses every goroutine's stack, the calling
// goroutine's first (runtime.Stack's order), recording each one's origin
// in the lineage memory.
func stacks() []goroutine {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []goroutine
	lineage.Lock()
	defer lineage.Unlock()
	for _, g := range strings.Split(string(buf), "\n\n") {
		g = strings.TrimSpace(g)
		if g == "" {
			continue
		}
		header, _, _ := strings.Cut(g, "\n")
		// "goroutine 123 [running]:"
		fields := strings.Fields(header)
		if len(fields) < 2 || fields[0] != "goroutine" {
			continue
		}
		id, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		var parent int64
		if _, created, ok := strings.Cut(g, "\ncreated by "); ok {
			line, _, _ := strings.Cut(created, "\n")
			if _, n, ok := strings.Cut(line, " in goroutine "); ok {
				parent, _ = strconv.ParseInt(n, 10, 64)
			}
		}
		out = append(out, goroutine{id: id, parent: parent, stack: g})
		lineage.m[id] = origin{parent: parent, test: strings.Contains(g, "\ntesting.tRunner(")}
	}
	return out
}

// owned reports whether a goroutine created by goroutine id belongs to the
// test running on goroutine root: the ancestry from id reaches root, or
// reaches no test goroutine before the recorded lineage runs out.
func owned(id, root int64) bool {
	lineage.Lock()
	defer lineage.Unlock()
	sawTest := false
	for hops := 0; hops <= len(lineage.m); hops++ {
		if id == root {
			return true
		}
		o, ok := lineage.m[id]
		if !ok {
			break
		}
		sawTest = sawTest || o.test
		id = o.parent
	}
	return !sawTest
}

// ignored reports whether the goroutine's stack marks it as harness or
// runtime machinery.
func ignored(g goroutine) bool {
	for _, s := range ignoredSubstrings {
		if strings.Contains(g.stack, s) {
			return true
		}
	}
	return false
}

// Snapshot records the identities of the currently live goroutines and
// the goroutine that took it — the test whose leaks it attributes.
type Snapshot struct {
	ids  map[int64]bool
	root int64
}

// Take captures the current goroutine set on behalf of the calling
// goroutine's test.
func Take() Snapshot {
	gs := stacks()
	ids := map[int64]bool{}
	for _, g := range gs {
		ids[g.id] = true
	}
	return Snapshot{ids: ids, root: gs[0].id}
}

// Leaked returns the stack-filtered goroutines alive now that were not in
// the snapshot and belong to the snapshot's test.
func (s Snapshot) Leaked() []goroutine {
	var out []goroutine
	for _, g := range stacks() {
		if !s.ids[g.id] && !ignored(g) && owned(g.parent, s.root) {
			out = append(out, g)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Settle polls until no leaked goroutines remain or the deadline passes,
// returning whatever is still alive. Goroutines legitimately winding down
// (closed connections, exiting workers) get time to finish.
func (s Snapshot) Settle(deadline time.Duration) []goroutine {
	end := time.Now().Add(deadline)
	for {
		leaked := s.Leaked()
		if len(leaked) == 0 || time.Now().After(end) {
			return leaked
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// DefaultSettle is how long Check waits for goroutines to wind down before
// declaring them leaked.
const DefaultSettle = 5 * time.Second

// Check snapshots now and returns a function that fails the test if new
// goroutines survive the settling deadline. Use with defer:
//
//	defer leakcheck.Check(t)()
func Check(t testing.TB) func() {
	t.Helper()
	snap := Take()
	return func() {
		t.Helper()
		report(t, snap)
	}
}

// CheckCleanup is Check wired through t.Cleanup, for tests whose teardown
// itself is registered via Cleanup (the check runs last-registered-first,
// so call CheckCleanup before registering teardowns that stop goroutines).
func CheckCleanup(t testing.TB) {
	t.Helper()
	snap := Take()
	t.Cleanup(func() { report(t, snap) })
}

func report(t testing.TB, snap Snapshot) {
	t.Helper()
	if leaked := snap.Settle(DefaultSettle); len(leaked) > 0 {
		var b strings.Builder
		for _, g := range leaked {
			fmt.Fprintf(&b, "%s\n\n", g.stack)
		}
		t.Errorf("leaked %d goroutine(s):\n%s", len(leaked), b.String())
	}
}
