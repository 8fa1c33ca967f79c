package profile

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/mem"
)

// buildChessSkeleton builds the control structure of the paper's Figure 3
// chess example: main -> runGame -> {getPlayerTurn, getAITurn{for_i{for_j}}}
// with 3 game turns and depth 12 (so for_j runs 36 times, as in Table 3).
func buildChessSkeleton(mod *ir.Module) {
	b := ir.NewBuilder(mod)

	ai := b.NewFunc("getAITurn", ir.F64, ir.P("depth", ir.I32))
	score := b.Alloca(ir.F64)
	b.Store(score, ir.Float(0))
	b.For("for_i", ir.Int(0), b.F.Params[0], ir.Int(1), func(i ir.Value) {
		b.For("for_j", ir.Int(0), ir.Int(64), ir.Int(1), func(j ir.Value) {
			f := b.Convert(ir.ConvIntToFP, j, ir.F64)
			b.Store(score, b.Add(b.Load(score), b.Mul(f, f)))
		})
	})
	b.Ret(b.Load(score))

	player := b.NewFunc("getPlayerTurn", ir.I32)
	b.Ret(ir.Int(1))

	run := b.NewFunc("runGame", ir.F64)
	acc := b.Alloca(ir.F64)
	b.Store(acc, ir.Float(0))
	b.For("turns", ir.Int(0), ir.Int(3), ir.Int(1), func(i ir.Value) {
		b.Call(player)
		b.Store(acc, b.Add(b.Load(acc), b.Call(ai, ir.Int(12))))
	})
	b.Ret(b.Load(acc))

	b.NewFunc("main", ir.I32)
	b.Call(run)
	b.Ret(ir.Int(0))
	b.Finish()
}

func profiled(t *testing.T) *Report {
	t.Helper()
	mod := ir.NewModule("chess")
	buildChessSkeleton(mod)
	spec := arch.ARM32()
	ir.Lower(mod, spec, spec)
	m, err := newInstance(mod, interp.CompileConfig{Name: "prof", Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(m)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestInvocationCounts(t *testing.T) {
	r := profiled(t)
	cases := map[string]int{
		"main":            1,
		"runGame":         1,
		"getAITurn":       3,
		"getPlayerTurn":   3,
		"getAITurn/for_i": 3,
		"getAITurn/for_j": 36, // 3 calls x 12 outer iterations — Table 3's 12x ratio
		"runGame/turns":   1,
	}
	for name, want := range cases {
		st := r.Get(name)
		if st == nil {
			t.Errorf("no stats for %s", name)
			continue
		}
		if st.Invocations != want {
			t.Errorf("%s invocations = %d, want %d", name, st.Invocations, want)
		}
	}
}

func TestTimeNesting(t *testing.T) {
	r := profiled(t)
	// Inclusive times must nest: main >= runGame >= getAITurn >= for_i >= for_j.
	chain := []string{"main", "runGame", "getAITurn", "getAITurn/for_i", "getAITurn/for_j"}
	for i := 0; i < len(chain)-1; i++ {
		outer, inner := r.Get(chain[i]), r.Get(chain[i+1])
		if outer.Time < inner.Time {
			t.Errorf("%s time %v < %s time %v", chain[i], outer.Time, chain[i+1], inner.Time)
		}
	}
	if r.Total < r.Get("main").Time {
		t.Error("total below main time")
	}
	// getAITurn dominates the program like the paper's 26.0s / 27.0s.
	if cov := r.Coverage("getAITurn"); cov < 0.80 {
		t.Errorf("getAITurn coverage = %.2f, want > 0.80", cov)
	}
}

func TestMemoryFootprint(t *testing.T) {
	r := profiled(t)
	if r.Get("getAITurn").Pages == 0 {
		t.Error("getAITurn touched no pages?")
	}
	if r.Get("getAITurn").MemBytes <= 0 {
		t.Error("MemBytes not derived")
	}
}

func TestSortedAndString(t *testing.T) {
	r := profiled(t)
	sorted := r.Sorted()
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1].Time < sorted[i].Time {
			t.Error("Sorted not descending by time")
		}
	}
	s := r.String()
	if !strings.Contains(s, "getAITurn") || !strings.Contains(s, "for_j") {
		t.Errorf("report string missing candidates:\n%s", s)
	}
}

func TestRecursionNotDoubleCounted(t *testing.T) {
	mod := ir.NewModule("rec")
	b := ir.NewBuilder(mod)
	fib := b.NewFunc("fib", ir.I32, ir.P("n", ir.I32))
	res := b.Alloca(ir.I32)
	b.If(b.Cmp(ir.LT, b.F.Params[0], ir.Int(2)),
		func() { b.Store(res, b.F.Params[0]) },
		func() {
			a := b.Call(fib, b.Sub(b.F.Params[0], ir.Int(1)))
			c := b.Call(fib, b.Sub(b.F.Params[0], ir.Int(2)))
			b.Store(res, b.Add(a, c))
		})
	b.Ret(b.Load(res))
	b.NewFunc("main", ir.I32)
	b.Ret(b.Call(fib, ir.Int(12)))
	b.Finish()
	spec := arch.ARM32()
	ir.Lower(mod, spec, spec)
	m, _ := newInstance(mod, interp.CompileConfig{Name: "rec", Spec: spec})
	r, err := Run(m)
	if err != nil {
		t.Fatal(err)
	}
	fibStats := r.Get("fib")
	if fibStats.Invocations < 100 {
		t.Errorf("fib invocations = %d, want hundreds", fibStats.Invocations)
	}
	// Inclusive time of the recursive root must not exceed main's.
	if fibStats.Time > r.Get("main").Time {
		t.Errorf("recursive fib time %v exceeds main %v (double counting)", fibStats.Time, r.Get("main").Time)
	}
}

func TestDetachRestoresMachine(t *testing.T) {
	mod := ir.NewModule("d")
	b := ir.NewBuilder(mod)
	b.NewFunc("main", ir.I32)
	b.Ret(ir.Int(0))
	b.Finish()
	spec := arch.ARM32()
	ir.Lower(mod, spec, spec)
	m, _ := newInstance(mod, interp.CompileConfig{Name: "d", Spec: spec})
	p, err := Attach(m)
	if err != nil {
		t.Fatal(err)
	}
	p.Detach()
	if m.Listener != nil || m.Mem.Touch != nil {
		t.Error("Detach left hooks installed")
	}
}

func TestSelfTimeExcludesCallees(t *testing.T) {
	r := profiled(t)
	run := r.Get("runGame")
	ai := r.Get("getAITurn")
	// runGame's inclusive time contains getAITurn, but its self time must
	// not: the turn loop's own bookkeeping is a sliver of the program.
	if run.SelfTime >= ai.Time {
		t.Errorf("runGame self %v should be far below getAITurn inclusive %v", run.SelfTime, ai.Time)
	}
	if run.SelfTime <= 0 {
		t.Error("runGame must have some self time (its own loop control)")
	}
	// A leaf's self time equals its inclusive time.
	leaf := r.Get("getPlayerTurn")
	if leaf.SelfTime != leaf.Time {
		t.Errorf("leaf self %v != inclusive %v", leaf.SelfTime, leaf.Time)
	}
	// Self times of all functions sum to main's inclusive time.
	var sum int64
	for _, st := range r.ByName {
		if st.Candidate.Kind == KindFunc {
			sum += int64(st.SelfTime)
		}
	}
	if main := r.Get("main"); int64(main.Time) != sum {
		t.Errorf("self-time sum %d != main inclusive %d", sum, int64(main.Time))
	}
}

// newInstance compiles the lowered mod under cfg and binds one instance.
func newInstance(mod *ir.Module, cfg interp.CompileConfig, opts ...interp.InstanceOption) (*interp.Machine, error) {
	prog, err := interp.Compile(mod, cfg, nil)
	if err != nil {
		return nil, err
	}
	return prog.NewInstance(opts...), nil
}

// bindARM lowers mod for ARM32 and binds one instance.
func bindARM(t *testing.T, mod *ir.Module) *interp.Machine {
	t.Helper()
	spec := arch.ARM32()
	ir.Lower(mod, spec, spec)
	m, err := newInstance(mod, interp.CompileConfig{Name: mod.Name, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// pageCount returns the number of distinct pages holding the addresses.
func pageCount(addrs ...uint32) int {
	set := make(map[uint32]bool)
	for _, a := range addrs {
		set[mem.PageNum(a)] = true
	}
	return len(set)
}

func wantPages(t *testing.T, r *Report, name string, want int) {
	t.Helper()
	st := r.Get(name)
	if st == nil {
		t.Fatalf("no stats for %s", name)
	}
	if st.Pages != want || st.MemBytes != int64(want)*mem.PageSize {
		t.Errorf("%s: Pages = %d (MemBytes %d), want %d", name, st.Pages, st.MemBytes, want)
	}
}

// TestPagesRecursive counts a recursive candidate's footprint across its
// nested activations: each level writes its own page of buf and the shared
// word before recursing and reads buf's first page after the callee
// returns. The outer activations see that page last, after an inner
// activation stamped it.
func TestPagesRecursive(t *testing.T) {
	const depth = 5
	mod := ir.NewModule("recpages")
	b := ir.NewBuilder(mod)
	buf := b.GlobalVar("buf", ir.Array(ir.I8, (depth+1)*mem.PageSize))
	shared := b.GlobalVar("shared", ir.I32)
	rec := b.NewFunc("rec", ir.I32, ir.P("n", ir.I32))
	n := rec.Params[0]
	b.Store(shared, n)
	b.Store(b.Index(buf, b.Mul(n, ir.Int(mem.PageSize))), ir.Int8(1))
	b.If(b.Cmp(ir.GT, n, ir.Int(0)), func() { b.Call(rec, b.Sub(n, ir.Int(1))) }, nil)
	b.Ret(b.Convert(ir.ConvZExt, b.Load(b.Index(buf, ir.Int(0))), ir.I32))
	b.NewFunc("main", ir.I32)
	b.Ret(b.Call(rec, ir.Int(depth)))
	b.Finish()

	m := bindARM(t, mod)
	addrs := []uint32{m.GlobalAddr(shared)}
	for k := uint32(0); k <= depth; k++ {
		addrs = append(addrs, m.GlobalAddr(buf)+k*mem.PageSize)
	}
	r, err := Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Get("rec").Invocations; got != depth+1 {
		t.Fatalf("rec invocations = %d, want %d", got, depth+1)
	}
	wantPages(t, r, "rec", pageCount(addrs...))
	wantPages(t, r, "main", pageCount(addrs...))
}

// TestPagesReturnInsideNestedLoops leaves f from inside two nested loops
// twice: first by a return, whose block lies outside both loops, then by
// exit(), which unwinds f with both loops still open. Both ways must close
// the loops: the page main touches between the calls belongs to main only,
// the loops reopen on the second call, and no candidate is left active.
func TestPagesReturnInsideNestedLoops(t *testing.T) {
	mod := ir.NewModule("nestret")
	b := ir.NewBuilder(mod)
	gi := b.GlobalVar("gi", ir.I32)
	gj := b.GlobalVar("gj", ir.I32)
	buf := b.GlobalVar("buf", ir.Array(ir.I8, 2*mem.PageSize))
	pre := b.GlobalVar("pre", ir.Array(ir.I8, 2*mem.PageSize))
	post := b.GlobalVar("post", ir.Array(ir.I8, 2*mem.PageSize))
	page1 := ir.Int(mem.PageSize)

	f := b.NewFunc("f", ir.I32, ir.P("exit", ir.I32))
	b.Store(b.Index(pre, page1), ir.Int8(1))
	b.Store(gi, ir.Int(0))
	b.While("outer", func() ir.Value { return b.Cmp(ir.LT, b.Load(gi), ir.Int(2)) }, func() {
		b.Store(gj, ir.Int(0))
		b.While("inner", func() ir.Value { return b.Cmp(ir.LT, b.Load(gj), ir.Int(3)) }, func() {
			b.Store(b.Index(buf, b.Mul(b.Load(gi), page1)), ir.Int8(1))
			// Leave at i=1, j=1.
			b.If(b.Cmp(ir.EQ, b.Add(b.Mul(b.Load(gi), ir.Int(3)), b.Load(gj)), ir.Int(4)), func() {
				b.If(b.Cmp(ir.NE, f.Params[0], ir.Int(0)),
					func() { b.CallExtern(ir.ExternExit, ir.Int(0)) }, // this block stays in both loops
					func() { b.Ret(ir.Int(1)) })
			}, nil)
			b.Store(gj, b.Add(b.Load(gj), ir.Int(1)))
		})
		b.Store(gi, b.Add(b.Load(gi), ir.Int(1)))
	})
	b.Ret(ir.Int(0))
	b.NewFunc("main", ir.I32)
	b.Call(f, ir.Int(0))
	b.Store(b.Index(post, page1), ir.Int8(1))
	b.Call(f, ir.Int(1))
	b.Ret(ir.Int(0))
	b.Finish()

	m := bindARM(t, mod)
	bufA, preA, postA := m.GlobalAddr(buf), m.GlobalAddr(pre)+mem.PageSize, m.GlobalAddr(post)+mem.PageSize
	loops := []uint32{m.GlobalAddr(gi), m.GlobalAddr(gj), bufA, bufA + mem.PageSize}
	if pageCount(append(loops, preA)...) != pageCount(loops...)+1 ||
		pageCount(append(loops, preA, postA)...) != pageCount(loops...)+2 {
		t.Fatal("pre and post must each sit on a page of their own")
	}
	r, err := Run(m)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int{"f": 2, "f/outer": 2, "f/inner": 4} {
		if got := r.Get(name).Invocations; got != want {
			t.Errorf("%s invocations = %d, want %d", name, got, want)
		}
	}
	for name, st := range r.ByName {
		if st.active != 0 {
			t.Errorf("%s still active after the run", name)
		}
	}
	if inner, outer := r.Get("f/inner").Time, r.Get("f/outer").Time; inner <= 0 || outer < inner || r.Get("f").Time < outer {
		t.Errorf("loop times not closed and nested: f %v outer %v inner %v", r.Get("f").Time, outer, inner)
	}
	wantPages(t, r, "f/inner", pageCount(loops...))
	wantPages(t, r, "f/outer", pageCount(loops...))
	wantPages(t, r, "f", pageCount(append(loops, preA)...))
	wantPages(t, r, "main", pageCount(append(loops, preA, postA)...))
}

// TestPagesStraddlingAccess loads and stores a word that straddles a page
// boundary: both pages count.
func TestPagesStraddlingAccess(t *testing.T) {
	mod := ir.NewModule("straddle")
	b := ir.NewBuilder(mod)
	buf := b.GlobalVar("buf", ir.Array(ir.I8, 3*mem.PageSize))
	off := b.GlobalVar("off", ir.I32)
	f := b.NewFunc("straddle", ir.I32)
	p := b.Convert(ir.ConvBitcast, b.Index(buf, b.Load(off)), ir.Ptr(ir.I32))
	v := b.Load(p)
	b.Store(p, b.Add(v, ir.Int(1)))
	b.Ret(v)
	b.NewFunc("main", ir.I32)
	b.Ret(b.Call(f))
	b.Finish()

	m := bindARM(t, mod)
	base, offA := m.GlobalAddr(buf), m.GlobalAddr(off)
	// The word starts two bytes before the end of buf's second page.
	a := (base+mem.PageSize)&^(mem.PageSize-1) + mem.PageSize - 2
	if err := m.Mem.WriteUint(offA, 4, uint64(a-base)); err != nil {
		t.Fatal(err)
	}
	if n := pageCount(offA, a, a+3); n != 3 {
		t.Fatalf("layout: off and the straddled word span %d pages, want 3", n)
	}
	r, err := Run(m)
	if err != nil {
		t.Fatal(err)
	}
	wantPages(t, r, "straddle", 3)
	wantPages(t, r, "main", 3)
}

// TestPagesServedFromPageCache has b load and store the same words a did
// just before: b's accesses hit the interpreter's page cache, and both
// pages must still count for b.
func TestPagesServedFromPageCache(t *testing.T) {
	mod := ir.NewModule("tlbhit")
	b := ir.NewBuilder(mod)
	rd := b.GlobalVar("rd", ir.Array(ir.I8, 2*mem.PageSize))
	wr := b.GlobalVar("wr", ir.Array(ir.I8, 2*mem.PageSize))
	for _, name := range []string{"a", "b"} {
		b.NewFunc(name, ir.I32)
		v := b.Load(b.Index(rd, ir.Int(mem.PageSize)))
		b.Store(b.Index(wr, ir.Int(mem.PageSize)), v)
		b.Ret(ir.Int(0))
	}
	b.NewFunc("main", ir.I32)
	b.Call(mod.Func("a"))
	b.Call(mod.Func("b"))
	b.Ret(ir.Int(0))
	b.Finish()

	m := bindARM(t, mod)
	want := pageCount(m.GlobalAddr(rd)+mem.PageSize, m.GlobalAddr(wr)+mem.PageSize)
	r, err := Run(m)
	if err != nil {
		t.Fatal(err)
	}
	wantPages(t, r, "a", want)
	wantPages(t, r, "b", want)
}

// TestProfilingZeroAllocSteadyState pins the profiler's hot path at zero
// allocations: once a loop calling a small load/store function has run
// and touched its pages, a further profiled run allocates nothing.
func TestProfilingZeroAllocSteadyState(t *testing.T) {
	mod := ir.NewModule("profalloc")
	b := ir.NewBuilder(mod)
	arr := b.GlobalVar("arr", ir.Array(ir.I32, 3*mem.PageSize/4))
	leaf := b.NewFunc("leaf", ir.I32, ir.P("i", ir.I32))
	i := leaf.Params[0]
	for k := int64(0); k < 3; k++ {
		e := b.Index(arr, b.Add(b.Rem(b.Mul(i, ir.Int(97)), ir.Int(mem.PageSize/4)), ir.Int(k*mem.PageSize/4)))
		b.Store(e, b.Add(b.Load(e), i))
	}
	b.Ret(b.Load(b.Index(arr, ir.Int(0))))
	kern := b.NewFunc("kern", ir.I32)
	b.For("i", ir.Int(0), ir.Int(200), ir.Int(1), func(i ir.Value) { b.Call(leaf, i) })
	b.Ret(ir.Int(0))
	b.Finish()

	m := bindARM(t, mod)
	p, err := Attach(m)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Detach()
	if _, err := m.CallFunc(kern); err != nil { // warm: touch pages, grow the stack and sets
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := m.CallFunc(kern); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("profiled steady state: %.1f allocs/run, want 0", allocs)
	}
	if leaf := p.Report(0).Get("leaf"); leaf == nil || leaf.Invocations != 12*200 || leaf.Pages < 3 {
		t.Errorf("leaf stats = %+v, want 2400 invocations over at least 3 pages", leaf)
	}
}
