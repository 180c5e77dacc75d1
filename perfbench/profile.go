package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// cpuProfile is the part of a runtime/pprof CPU profile the benchmark
// needs: each sample's stack as function names, leaf first, and its CPU
// nanoseconds. Decoding it here keeps the benchmark on the standard
// library; the format is profile.proto, gzip-compressed.
type cpuProfile struct {
	samples []cpuSample
}

type cpuSample struct {
	stack []string
	nanos int64
}

// profile.proto field numbers used below.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6
	fSampleLocation  = 1
	fSampleValue     = 2
	fLocationID      = 1
	fLocationLine    = 4
	fLineFunction    = 1
	fFunctionID      = 1
	fFunctionName    = 2
)

// pbField is one decoded protobuf field: a varint, or bytes for a
// length-delimited field.
type pbField struct {
	num   int
	wire  int
	v     uint64
	bytes []byte
}

// pbFields splits a protobuf message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = binary.Uvarint(b)
			if n <= 0 {
				return nil, fmt.Errorf("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, fmt.Errorf("profile: short fixed64")
			}
			f.v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, fmt.Errorf("profile: bad length")
			}
			f.bytes, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, fmt.Errorf("profile: short fixed32")
			}
			f.v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// varints returns a repeated integer field's values, packed or not.
func (f pbField) varints() ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	for b := f.bytes; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("profile: bad packed varint")
		}
		out, b = append(out, v), b[n:]
	}
	return out, nil
}

// parseCPUProfile decodes a gzip-compressed CPU profile.
func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var (
		strs    []string
		funcs   = map[uint64]uint64{}   // function id → name string index
		locs    = map[uint64][]uint64{} // location id → function ids, leaf first
		samples [][]pbField
	)
	for _, f := range top {
		switch f.num {
		case fProfileStrings:
			strs = append(strs, string(f.bytes))
		case fProfileSample:
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			samples = append(samples, fs)
		case fProfileFunction:
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, g := range fs {
				switch g.num {
				case fFunctionID:
					id = g.v
				case fFunctionName:
					name = g.v
				}
			}
			funcs[id] = name
		case fProfileLocation:
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, g := range fs {
				switch g.num {
				case fLocationID:
					id = g.v
				case fLocationLine:
					line, err := pbFields(g.bytes)
					if err != nil {
						return nil, err
					}
					for _, h := range line {
						if h.num == fLineFunction {
							fns = append(fns, h.v)
						}
					}
				}
			}
			locs[id] = fns
		}
	}
	name := func(fn uint64) string {
		if i := funcs[fn]; i < uint64(len(strs)) {
			return strs[i]
		}
		return "?"
	}
	p := &cpuProfile{}
	for _, fs := range samples {
		var s cpuSample
		var vals []uint64
		for _, f := range fs {
			switch f.num {
			case fSampleLocation:
				ids, err := f.varints()
				if err != nil {
					return nil, err
				}
				for _, id := range ids {
					for _, fn := range locs[id] {
						s.stack = append(s.stack, name(fn))
					}
				}
			case fSampleValue:
				vs, err := f.varints()
				if err != nil {
					return nil, err
				}
				vals = append(vals, vs...)
			}
		}
		// CPU profiles carry [samples/count, cpu/nanoseconds].
		if len(vals) >= 2 {
			s.nanos = int64(vals[1])
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// Self-time buckets. A sample is charged to the first function on its
// stack, leaf first, that belongs to a bucketed package; standard-library
// and runtime helpers (malloc, memmove, syscalls) and the repo's shared
// utility packages are charged to their caller. GC work and scheduler
// work are buckets of their own wherever they run.
const (
	bucketGC       = "runtime.gc"
	bucketSched    = "runtime.sched"
	bucketSync     = "frame.sync"
	bucketDespread = "frame.despread"
	bucketOther    = "other"
)

// buckets lists every bucket, in report order.
var buckets = []string{
	"radio", bucketSync, bucketDespread, "fec", "schemes", "core", "netsim",
	"sim", "wire", "linkserv", bucketGC, bucketSched, bucketOther,
}

// pkgBucket maps a repo package (path below ppr/internal/) to its bucket;
// packages absent from the map are helpers charged to their caller.
var pkgBucket = map[string]string{
	"radio":       "radio",
	"frame":       bucketDespread, // AppendSyncs is split out by name
	"chipseq":     bucketDespread,
	"phy":         bucketDespread,
	"fec":         "fec",
	"interleave":  "fec",
	"schemes":     "schemes",
	"core":        "core",
	"netsim":      "netsim",
	"topo":        "netsim",
	"jam":         "netsim",
	"mac":         "netsim",
	"scenario":    "netsim",
	"sim":         "sim",
	"experiments": "sim",
	"testbed":     "sim",
	"wire":        "wire",
	"linkserv":    "linkserv",
}

// schedFuncs are runtime functions whose time is goroutine scheduling:
// parking, waking, finding work, and idle threads.
var schedFuncs = map[string]bool{
	"runtime.schedule": true, "runtime.findRunnable": true, "runtime.park_m": true,
	"runtime.goschedImpl": true, "runtime.gopark": true, "runtime.goready": true,
	"runtime.ready": true, "runtime.wakep": true, "runtime.startm": true,
	"runtime.stopm": true, "runtime.mstart": true, "runtime.mstart1": true,
	"runtime.newproc": true, "runtime.netpoll": true, "runtime.notewakeup": true,
	"runtime.notesleep": true, "runtime.futexwakeup": true, "runtime.futexsleep": true,
	"runtime.sysmon": true, "runtime.exitsyscall": true, "runtime.goexit0": true,
	"runtime.mcall": true, "runtime.gosched_m": true, "runtime.injectglist": true,
}

// pkgOf returns a function name's package path.
func pkgOf(fn string) string {
	i := strings.LastIndex(fn, "/")
	if j := strings.Index(fn[i+1:], "."); j >= 0 {
		return fn[:i+1+j]
	}
	return fn
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal") || strings.HasPrefix(pkg, "internal/runtime")
}

// classify returns the bucket a sample's self time is charged to.
func classify(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgsweep") ||
			strings.HasPrefix(fn, "runtime.bgscavenge") || fn == "runtime.markroot" {
			return bucketGC
		}
	}
	for _, fn := range stack {
		if !isRuntime(pkgOf(fn)) {
			break
		}
		if schedFuncs[fn] {
			return bucketSched
		}
	}
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(pkgOf(fn), "ppr/internal/")
		if !ok {
			continue
		}
		top, _, _ := strings.Cut(rest, "/")
		b, ok := pkgBucket[top]
		if !ok {
			continue
		}
		if b == bucketDespread && top == "frame" && strings.Contains(fn, "AppendSyncs") {
			return bucketSync
		}
		return b
	}
	return bucketOther
}

// shares returns each bucket's share of the profile's CPU time, and the
// total CPU time the profile covers.
func (p *cpuProfile) shares() (map[string]float64, int64) {
	ns := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		ns[classify(s.stack)] += s.nanos
		total += s.nanos
	}
	out := map[string]float64{}
	for _, b := range buckets {
		if total > 0 {
			out[b] = float64(ns[b]) / float64(total)
		} else {
			out[b] = 0
		}
	}
	return out, total
}
