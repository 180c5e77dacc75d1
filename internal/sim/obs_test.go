package sim

import (
	"testing"

	"ppr/internal/obs"
)

// TestRunCountsSyncScans checks that the simulator's shared per-window
// sync scan reports frame.syncs_found: every acquired outcome of a variant
// locked onto a detection of its window's scan, so the counter bounds the
// acquisitions from above.
func TestRunCountsSyncScans(t *testing.T) {
	old := obs.Default()
	defer obs.SetDefault(old)
	r := obs.New()
	obs.SetDefault(r)

	cfg := smallCfg(6900, true, 3)
	cfg.DurationSec = 0.5
	_, outs := Run(cfg, []Variant{{Name: "prepost", UsePostamble: true}})
	acquired := int64(0)
	for _, o := range outs {
		if o.Acquired {
			acquired++
		}
	}
	if acquired == 0 {
		t.Fatal("run acquired no packets")
	}
	if got := r.Snapshot().Counters["frame.syncs_found"]; got < acquired {
		t.Errorf("frame.syncs_found = %d, want >= %d acquired outcomes", got, acquired)
	}
}
