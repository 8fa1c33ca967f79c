package interp

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/ir"
	"repro/internal/mem"
)

// observe runs main on m through eng and captures the observation set the
// differential suites compare.
func observe(m *Machine, io *StdIO, eng engine) engineRun {
	r := engineRun{}
	code, err := eng.runMain(m)
	r.code = code
	if err != nil {
		r.errStr = err.Error()
	}
	r.out = io.Out.String()
	r.steps = m.Steps
	r.clock = m.Clock
	r.comp = m.Comp
	r.digest = m.Mem.Digest(mem.StackRanges()...)
	return r
}

// runInstance binds one instance of prog and observes its run on eng.
func runInstance(prog *Program, eng engine, costScale int64) engineRun {
	io := NewStdIO(nil)
	return observe(prog.NewInstance(WithIO(io), WithCostScale(costScale)), io, eng)
}

// privateMachine compiles the lowered mod afresh and binds it over a
// private memory the linker loads directly: no cache, no shared image, no
// copy-on-write overlay. It is the baseline shared instances are held to.
func privateMachine(t testing.TB, mod *ir.Module, cfg CompileConfig, opts ...InstanceOption) *Machine {
	t.Helper()
	prog, err := compileProgram(mod, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mm := mem.New()
	if err := writeGlobalInits(mm, mod, prog.cfg.Std, prog.lay, prog.cfg.InitUVAGlobals); err != nil {
		t.Fatal(err)
	}
	return prog.bind(mm, opts)
}

// runLegacy runs mod on a private machine as the fidelity baseline.
func runLegacy(t *testing.T, work *ir.Module, spec, std *arch.Spec, costScale int64) engineRun {
	t.Helper()
	io := NewStdIO(nil)
	m := privateMachine(t, work, CompileConfig{Name: "diff", Spec: spec, Std: std, InitUVAGlobals: true},
		WithIO(io), WithCostScale(costScale))
	return observe(m, io, engineFast)
}

// TestSharedInstanceDifferential reruns the seeded random-program suite on
// shared-image instances: for every seed and arch binding, a fast and a ref
// instance of one cached Program must match a private-copy legacy machine
// bit for bit (output, exit code, steps, clock, component buckets, digest).
// Running two instances off the same Program back to back also pins session
// isolation — the first instance's writes must not leak into the second.
func TestSharedInstanceDifferential(t *testing.T) {
	seeds := 110
	if testing.Short() {
		seeds = 25
	}
	cache := NewCompilationCache()
	specs := diffSpecs()
	for seed := 0; seed < seeds; seed++ {
		mod := genProgram(int64(seed))
		for _, sp := range specs {
			label := fmt.Sprintf("seed=%d %s/std=%s", seed, sp.spec.Name, sp.std.Name)
			work := mod.Clone(mod.Name)
			ir.Lower(work, sp.spec, sp.std)
			legacy := runLegacy(t, work, sp.spec, sp.std, 1)
			prog, err := Compile(work, CompileConfig{
				Name: "diff", Spec: sp.spec, Std: sp.std, InitUVAGlobals: true,
			}, cache)
			if err != nil {
				t.Fatalf("%s: Compile: %v", label, err)
			}
			compareRuns(t, label+" shared-fast", runInstance(prog, engineFast, 1), legacy)
			compareRuns(t, label+" shared-ref", runInstance(prog, engineOracle, 1), legacy)
			if t.Failed() {
				t.Fatalf("%s: shared instance diverged from private machine", label)
			}
		}
	}
	if s := cache.Stats(); s.Hits != 0 || s.Misses != int64(seeds*len(specs)) {
		t.Errorf("cache stats = %+v, want %d misses and no hits", s, seeds*len(specs))
	}
}

// TestConcurrentCompileAndRun is the race-detector stress for the
// compile-once/instantiate-many contract: N goroutines bind the same module
// through one CompilationCache and run their instances in parallel. Exactly
// one compile may happen, every binder must get the same *Program and shared
// image pointer, and every run must be bit-identical to a private machine.
func TestConcurrentCompileAndRun(t *testing.T) {
	spec := arch.ARM32()
	mod := genProgram(777)
	work := mod.Clone(mod.Name)
	ir.Lower(work, spec, spec)
	legacy := runLegacy(t, work, spec, spec, 1)

	const n = 8
	cache := NewCompilationCache()
	cfg := CompileConfig{Name: "diff", Spec: spec, InitUVAGlobals: true}
	progs := make([]*Program, n)
	runs := make([]engineRun, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			prog, err := Compile(work, cfg, cache)
			if err != nil {
				t.Errorf("binder %d: Compile: %v", i, err)
				return
			}
			progs[i] = prog
			io := NewStdIO(nil)
			runs[i] = observe(prog.NewInstance(WithIO(io)), io, engineFast)
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	if s := cache.Stats(); s.Misses != 1 || s.Hits != n-1 || s.Entries != 1 {
		t.Errorf("cache stats = %+v, want 1 miss, %d hits, 1 entry", s, n-1)
	}
	for i := 1; i < n; i++ {
		if progs[i] != progs[0] {
			t.Errorf("binder %d got a different *Program (%p vs %p)", i, progs[i], progs[0])
		}
		if progs[i].Image() != progs[0].Image() {
			t.Errorf("binder %d got a different image pointer", i)
		}
	}
	for i := 0; i < n; i++ {
		compareRuns(t, fmt.Sprintf("binder %d", i), runs[i], legacy)
	}
}

// TestBindSmoke pins the O(1)-bind contract itself: a fresh instance holds
// zero private resident bytes (binding must not copy the image), starts from
// the exact present-page set and memory digest a private machine loads, and
// a second Compile of the same module is a cache hit returning the same
// pointer. `make check` runs this as its bind smoke.
func TestBindSmoke(t *testing.T) {
	spec := arch.ARM32()
	mod := genProgram(4242)
	work := mod.Clone(mod.Name)
	ir.Lower(work, spec, spec)
	cache := NewCompilationCache()
	cfg := CompileConfig{Name: "diff", Spec: spec, InitUVAGlobals: true}

	prog, err := Compile(work, cfg, cache)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	inst := prog.NewInstance()
	if got := inst.Mem.ResidentPrivateBytes(); got != 0 {
		t.Fatalf("fresh instance holds %d private bytes; bind must not copy the image", got)
	}

	legacy := privateMachine(t, work, cfg)
	lp, ip := legacy.Mem.PresentPages(), inst.Mem.PresentPages()
	if len(lp) != len(ip) {
		t.Fatalf("present pages: legacy %d, instance %d", len(lp), len(ip))
	}
	for i := range lp {
		if lp[i] != ip[i] {
			t.Fatalf("present page %d: legacy %#x, instance %#x", i, lp[i], ip[i])
		}
	}
	if ld, id := legacy.Mem.Digest(), inst.Mem.Digest(); ld != id {
		t.Fatalf("initial digest: legacy %#x, instance %#x", ld, id)
	}
	if got := inst.Mem.ResidentPrivateBytes(); got != 0 {
		t.Fatalf("digest materialized %d private bytes on a read-only instance", got)
	}

	again, err := Compile(work, cfg, cache)
	if err != nil {
		t.Fatalf("second Compile: %v", err)
	}
	if again != prog {
		t.Fatalf("second Compile returned a new *Program; want the cached one")
	}
	if s := cache.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 hit / 1 miss", s)
	}
}
