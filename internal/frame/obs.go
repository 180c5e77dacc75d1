package frame

import (
	"sync/atomic"

	"ppr/internal/obs"
)

// mSyncsFound counts sync detections across every scan, whoever runs it:
// Receiver.Receive scans per call, the simulator once per window for all
// its receiver variants. AppendSyncs is a free function with no
// construction moment, so the site goes through an obs Var.
var mSyncsFound = &obs.CounterVar{Name: "frame.syncs_found"}

// rxShardSeq spreads Receivers across registry cells: the simulators keep
// one Receiver per worker (or per netsim shard), so successive receivers
// land on distinct cells and the hot receive path never contends.
var rxShardSeq atomic.Int64

// rxMetrics is a Receiver's pre-resolved metric cells, bound at
// construction from the default registry. All-nil (one branch per receive
// call, zero allocations) when metrics are disabled — the contract
// TestMetricsDisabledAllocs pins.
type rxMetrics struct {
	// receptions counts header-verified receptions after deduplication.
	receptions *obs.CounterCell
	// crcFail counts header-verified receptions whose whole-packet CRC
	// failed — the partial packets PPR exists to recover.
	crcFail *obs.CounterCell
}

// newRxMetrics resolves a fresh receiver's cells.
func newRxMetrics() rxMetrics {
	r := obs.Default()
	if r == nil {
		return rxMetrics{}
	}
	shard := int(rxShardSeq.Add(1))
	return rxMetrics{
		receptions: r.Counter("frame.receptions").Cell(shard),
		crcFail:    r.Counter("frame.crc_failures").Cell(shard),
	}
}
