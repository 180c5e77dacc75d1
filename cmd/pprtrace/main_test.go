package main

import (
	"bytes"
	"cmp"
	"strconv"
	"strings"
	"testing"
)

// TestLinksOutputRepeats runs -what links twice on one seed: the two runs
// must print identical bytes, rows in (src, receiver) order within each
// scheme and variant.
func TestLinksOutputRepeats(t *testing.T) {
	args := []string{"-what", "links", "-seed", "3", "-load", "6900"}
	var a, b, errs bytes.Buffer
	if code := run(args, &a, &errs); code != 0 {
		t.Fatalf("run: exit %d: %s", code, errs.String())
	}
	if code := run(args, &b, &errs); code != 0 {
		t.Fatalf("second run: exit %d: %s", code, errs.String())
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two runs of one seed printed different link tables")
	}
	rows := strings.Split(strings.TrimSpace(a.String()), "\n")[1:]
	if len(rows) < 10 {
		t.Fatalf("link table has %d rows:\n%s", len(rows), a.String())
	}
	link := func(f []string) (src, rcv int) {
		src, _ = strconv.Atoi(f[0])
		rcv, _ = strconv.Atoi(f[1])
		return src, rcv
	}
	for i := 1; i < len(rows); i++ {
		p, c := strings.Split(rows[i-1], ","), strings.Split(rows[i], ",")
		if p[2] != c[2] || p[3] != c[3] {
			continue // a new (scheme, postamble) block starts
		}
		ps, pr := link(p)
		cs, cr := link(c)
		if cmp.Or(cmp.Compare(ps, cs), cmp.Compare(pr, cr)) >= 0 {
			t.Fatalf("row %q does not follow row %q in link order", rows[i], rows[i-1])
		}
	}
}

// TestUnknownWhatExits2 rejects an unknown -what before simulating.
func TestUnknownWhatExits2(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"-what", "nope"}, &out, &errs); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errs.String(), "unknown -what") {
		t.Errorf("stderr %q does not name the bad -what", errs.String())
	}
}
