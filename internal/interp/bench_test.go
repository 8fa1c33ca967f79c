package interp

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/ir"
	"repro/internal/mem"
)

// loadStoreKernelModule is a memory-dominated kernel: four loads and four
// stores per iteration across a two-page working set.
func loadStoreKernelModule(iters int64) *ir.Module {
	mod := ir.NewModule("lskernel")
	b := ir.NewBuilder(mod)
	arr := b.GlobalVar("arr", ir.Array(ir.I64, 1024))
	b.NewFunc("kern", ir.I64)
	sum := b.Alloca(ir.I64)
	b.Store(sum, ir.Int64(0))
	b.For("i", ir.Int64(0), ir.Int64(iters), ir.Int64(1), func(i ir.Value) {
		k := b.And(i, ir.Int64(1023))
		a := b.Load(b.Index(arr, k))
		c := b.Load(b.Index(arr, b.Xor(k, ir.Int64(512))))
		d := b.Load(b.Index(arr, b.Xor(k, ir.Int64(255))))
		e := b.Load(sum)
		v := b.Add(b.Add(a, c), b.Add(d, e))
		b.Store(b.Index(arr, k), v)
		b.Store(b.Index(arr, b.Xor(k, ir.Int64(512))), b.Add(v, ir.Int64(1)))
		b.Store(b.Index(arr, b.Xor(k, ir.Int64(255))), b.Sub(v, i))
		b.Store(sum, v)
	})
	b.Ret(b.Load(sum))
	b.Finish()
	return mod
}

// benchEngine runs the kernel under one engine, reporting steps/s.
func benchEngine(b *testing.B, mod *ir.Module, eng engine) {
	m, kern := kernelMachine(b, mod)
	if _, err := eng.call(m, kern, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := m.Steps
	for i := 0; i < b.N; i++ {
		if _, err := eng.call(m, kern, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(m.Steps-start)/secs, "steps/s")
	}
}

// BenchmarkInterpLoop compares the pre-decoded engine with the
// tree-walking oracle on the canonical load/store/bin/branch loop (the
// acceptance-criteria benchmark).
func BenchmarkInterpLoop(b *testing.B) {
	mod := loopKernelModule(4096)
	b.Run("fast", func(b *testing.B) { benchEngine(b, mod, engineFast) })
	b.Run("ref", func(b *testing.B) { benchEngine(b, mod, engineOracle) })
}

// BenchmarkLoadStore stresses the page-cache memory fast path.
func BenchmarkLoadStore(b *testing.B) {
	mod := loadStoreKernelModule(4096)
	b.Run("fast", func(b *testing.B) { benchEngine(b, mod, engineFast) })
	b.Run("ref", func(b *testing.B) { benchEngine(b, mod, engineOracle) })
}

// BenchmarkCallReturn stresses frame acquisition and argument passing.
func BenchmarkCallReturn(b *testing.B) {
	mod := callKernelModule(4096)
	b.Run("fast", func(b *testing.B) { benchEngine(b, mod, engineFast) })
	b.Run("ref", func(b *testing.B) { benchEngine(b, mod, engineOracle) })
}

// BenchmarkDigest measures the semantic-memory hash over a mixed image:
// half the pages zero (detected by the word-wise scan), half dense.
func BenchmarkDigest(b *testing.B) {
	m := mem.New()
	buf := make([]byte, mem.PageSize)
	for pn := uint32(0); pn < 256; pn++ {
		if pn%2 == 0 {
			for i := range buf {
				buf[i] = byte(pn + uint32(i))
			}
			m.InstallPage(mem.PageNum(mem.HeapBase)+pn, buf)
		} else {
			m.InstallPage(mem.PageNum(mem.HeapBase)+pn, nil)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = m.Digest()
	}
	_ = sink
}

// TestBenchJSON writes the machine-readable benchmark record consumed by
// `make bench`. Skipped unless BENCH_JSON names the output path, so plain
// test runs stay fast.
func TestBenchJSON(t *testing.T) {
	path := os.Getenv("BENCH_JSON")
	if path == "" {
		t.Skip("BENCH_JSON not set; run via make bench")
	}
	type row struct {
		Name        string  `json:"name"`
		NsPerOp     float64 `json:"ns_per_op"`
		AllocsPerOp int64   `json:"allocs_per_op"`
		StepsPerSec float64 `json:"steps_per_sec,omitempty"`
	}
	var rows []row
	add := func(name string, fn func(b *testing.B)) row {
		r := testing.Benchmark(fn)
		out := row{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			StepsPerSec: r.Extra["steps/s"],
		}
		rows = append(rows, out)
		return out
	}
	loop := loopKernelModule(4096)
	fast := add("InterpLoop/fast", func(b *testing.B) { benchEngine(b, loop, engineFast) })
	ref := add("InterpLoop/ref", func(b *testing.B) { benchEngine(b, loop, engineOracle) })
	ls := loadStoreKernelModule(4096)
	add("LoadStore/fast", func(b *testing.B) { benchEngine(b, ls, engineFast) })
	add("LoadStore/ref", func(b *testing.B) { benchEngine(b, ls, engineOracle) })
	call := callKernelModule(4096)
	add("CallReturn/fast", func(b *testing.B) { benchEngine(b, call, engineFast) })
	add("CallReturn/ref", func(b *testing.B) { benchEngine(b, call, engineOracle) })
	add("Digest", BenchmarkDigest)

	speedup := 0.0
	if ref.StepsPerSec > 0 {
		speedup = fast.StepsPerSec / ref.StepsPerSec
	}
	doc := struct {
		Benchmarks        []row   `json:"benchmarks"`
		InterpLoopSpeedup float64 `json:"interp_loop_speedup_x"`
	}{rows, speedup}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (InterpLoop speedup %.1fx, fast allocs/op %d)", path, speedup, fast.AllocsPerOp)
	if speedup < 5 {
		t.Errorf("InterpLoop speedup %.2fx, want >= 5x", speedup)
	}
	if fast.AllocsPerOp != 0 {
		t.Errorf("fast engine %d allocs/op, want 0", fast.AllocsPerOp)
	}
}
