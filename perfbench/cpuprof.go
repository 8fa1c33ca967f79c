package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuBucket groups CPU samples by the functions on their stacks.
type cpuBucket struct {
	metric   string
	prefixes []string // function-name prefixes that put a frame in the bucket
}

// cpuBuckets are the fleet.cpu.* metrics. A sample belongs to the bucket
// of its innermost frame that matches one, so the buckets never overlap:
// an allocation made by the dispatcher counts as dispatch, and a GC
// assist inside that allocation counts as gc. The sync bucket (the last
// one) only takes samples whose stack matches no other bucket, so a lock
// taken inside the dispatcher's allocation or a parking GC worker does
// not count as shard-barrier time.
var cpuBuckets = []cpuBucket{
	{"fleet.cpu.gc", []string{
		"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain", "runtime.markroot",
		"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.gcStart", "runtime.gcMarkDone",
		"runtime.gcMarkTermination",
	}},
	{"fleet.cpu.finish", []string{"repro/internal/fleet.(*Result).finish"}},
	{"fleet.cpu.dispatch", []string{
		"repro/internal/fleet.(*dispatcher).pickAmong", "repro/internal/fleet.(*server).estWait",
	}},
	{"fleet.cpu.heap", []string{
		"repro/internal/fleet.(*eventQueue)", "repro/internal/fleet.(*windowQueue)",
		"repro/internal/fleet.(*schedQueue)", "repro/internal/fleet.(*event).before",
	}},
	{"fleet.cpu.sync", []string{
		"runtime.chansend", "runtime.chanrecv", "runtime.selectgo", "runtime.lock2", "runtime.unlock2",
		"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.notesleep",
		"runtime.notewakeup", "runtime.usleep", "runtime.osyield", "runtime.stopm", "runtime.startm",
		"sync.(*Mutex)", "sync.(*WaitGroup)",
	}},
}

// bucketOf returns the metric of the innermost frame that matches a
// bucket other than sync, else sync when a frame matches it, else "".
// frames run innermost first.
func bucketOf(frames []string) string {
	last := len(cpuBuckets) - 1
	if m := matchBuckets(frames, cpuBuckets[:last]); m != "" {
		return m
	}
	return matchBuckets(frames, cpuBuckets[last:])
}

// matchBuckets returns the metric of the innermost frame that matches one
// of bs, or "".
func matchBuckets(frames []string, bs []cpuBucket) string {
	for _, fn := range frames {
		for _, b := range bs {
			for _, p := range b.prefixes {
				if strings.HasPrefix(fn, p) {
					return b.metric
				}
			}
		}
	}
	return ""
}

// cpuShares decodes a gzipped pprof CPU profile and returns each
// bucket's share of all samples.
func cpuShares(raw []byte) (map[string]float64, error) {
	stacks, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, b := range cpuBuckets {
		out[b.metric] = 0
	}
	var total int64
	for _, s := range stacks {
		total += s.count
		if m := bucketOf(s.frames); m != "" {
			out[m] += float64(s.count)
		}
	}
	if total == 0 {
		return nil, errors.New("cpu profile holds no samples")
	}
	for k := range out {
		out[k] /= float64(total)
	}
	return out, nil
}

// sampleStack is one profile sample: its count and its function names,
// innermost first (inlined frames included).
type sampleStack struct {
	count  int64
	frames []string
}

// decodeProfile reads the parts of a profile.proto message a CPU share
// needs: samples (field 2), locations (4), functions (5) and the string
// table (6).
func decodeProfile(raw []byte) ([]sampleStack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var samples []sample
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	funcName := map[uint64]int64{}    // function id -> string index
	var strs []string
	err = eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					if vals := appendVarints(nil, v, b); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make([]sampleStack, 0, len(samples))
	for _, s := range samples {
		st := sampleStack{count: s.count}
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				if i := funcName[f]; i >= 0 && i < int64(len(strs)) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// eachField calls fn for every field of a protobuf message: v holds a
// varint or fixed value, b the bytes of a length-delimited one.
func eachField(data []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad field key")
		}
		data = data[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("short fixed64")
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("bad length")
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("short fixed32")
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: one value when
// unpacked (b == nil), every varint in b when packed.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
