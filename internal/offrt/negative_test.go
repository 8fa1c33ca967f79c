package offrt

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/compiler"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/profile"
)

// These tests run the system with one unification/partition mechanism
// removed and check that execution actually breaks — demonstrating that
// each of the paper's Section 3.2/3.3 mechanisms is load-bearing, not
// ceremonial.

// buildStackSensitive builds a program whose result depends on a stack
// local that lives across the offloaded call:
//
//	main: x := 42 (alloca); hot(n) scribbles over a large frame; return *x.
func buildStackSensitive() *ir.Module {
	mod := ir.NewModule("stack")
	b := ir.NewBuilder(mod)

	hot := b.NewFunc("hot", ir.I64, ir.P("n", ir.I32))
	{
		// A frame big enough to cover the caller's stack page when both
		// stacks share a base.
		scratch := b.Alloca(ir.Array(ir.I64, 2048))
		base := b.Index(b.Convert(ir.ConvBitcast, scratch, ir.Ptr(ir.I64)), ir.Int(0))
		acc := b.Alloca(ir.I64)
		b.Store(acc, ir.Int64(0))
		b.For("scrub", ir.Int(0), ir.Int(2048), ir.Int(1), func(i ir.Value) {
			p := b.Index(base, i)
			b.Store(p, ir.Int64(0x5A5A5A5A5A5A5A5A))
			b.Store(acc, b.Xor(b.Load(acc), b.Load(p)))
		})
		// Heavy enough to be selected.
		b.For("spin", ir.Int(0), b.Mul(b.F.Params[0], ir.Int(2000)), ir.Int(1), func(i ir.Value) {
			b.Store(acc, b.Add(b.Load(acc), ir.Int64(1)))
		})
		b.Ret(b.Load(acc))
	}

	b.NewFunc("main", ir.I32)
	x := b.Alloca(ir.I32)
	b.Store(x, ir.Int(42))
	b.Call(hot, ir.Int(10))
	b.Ret(b.Load(x))
	b.Finish()
	return mod
}

func compilePair(t *testing.T, mod *ir.Module, costScale int64) *compiler.Result {
	t.Helper()
	work := mod.Clone("prof")
	spec := arch.ARM32()
	ir.Lower(work, spec, spec)
	pm, _ := newInstance(work, interp.CompileConfig{Name: "p", Spec: spec, InitUVAGlobals: true}, interp.WithCostScale(costScale))
	prof, err := profile.Run(pm)
	if err != nil {
		t.Fatal(err)
	}
	cres, err := compiler.Compile(mod, prof, compiler.Default(650_000_000))
	if err != nil {
		t.Fatal(err)
	}
	return cres
}

func runPair(t *testing.T, cres *compiler.Result, costScale int64) (int32, error) {
	t.Helper()
	mobile, err := newInstance(cres.Mobile, interp.CompileConfig{
		Name: "mobile", Spec: arch.ARM32(), Std: arch.ARM32(),
		FuncBase: mem.FuncBaseMobile, InitUVAGlobals: true,
	}, interp.WithCostScale(costScale))
	if err != nil {
		t.Fatal(err)
	}
	server, err := newInstance(cres.Server, interp.CompileConfig{
		Name: "server", Spec: arch.X8664(), Std: arch.ARM32(),
		FuncBase: mem.FuncBaseServer, ShuffleFuncs: true, ShuffleGlobals: true,
	}, interp.WithCostScale(costScale))
	if err != nil {
		t.Fatal(err)
	}
	var tasks []TaskSpec
	for _, tg := range cres.Targets {
		tasks = append(tasks, TaskSpec{TaskID: tg.TaskID, Name: tg.Name,
			TimePerInvocation: tg.TimePerInvocation, MemBytes: tg.MemBytes})
	}
	sess, err := NewSession(mobile, server, netsim.Fast80211AC(),
		WithTasks(tasks...), WithPolicy(Policy{ForceOffload: true}))
	if err != nil {
		t.Fatal(err)
	}
	return sess.RunMobile()
}

func TestStackReallocationIsLoadBearing(t *testing.T) {
	const cost = 2000

	// With the compiler's stack reallocation: the caller's local survives.
	cres := compilePair(t, buildStackSensitive(), cost)
	if cres.Server.StackBase == cres.Mobile.StackBase {
		t.Fatal("precondition: compiler should have relocated the server stack")
	}
	code, err := runPair(t, cres, cost)
	if err != nil {
		t.Fatal(err)
	}
	if code != 42 {
		t.Fatalf("with stack reallocation: got %d, want 42", code)
	}

	// Without it (server stack back at the mobile base): the offloaded
	// task's frames overwrite the caller's live stack page, and the dirty
	// write-back carries the corruption home.
	cres2 := compilePair(t, buildStackSensitive(), cost)
	cres2.Server.StackBase = cres2.Mobile.StackBase
	code2, err := runPair(t, cres2, cost)
	if err == nil && code2 == 42 {
		t.Fatal("without stack reallocation the caller's local survived; the overlap bug did not manifest")
	}
	t.Logf("without stack reallocation: code=%d err=%v (corruption as expected)", code2, err)
}

// buildLayoutSensitive returns a program whose offloaded task reads a
// struct with architecture-sensitive layout ({i8, i64} pairs) written by
// the mobile side.
func buildLayoutSensitive() *ir.Module {
	mod := ir.NewModule("layout")
	b := ir.NewBuilder(mod)
	rec := ir.Struct("Rec",
		ir.StructField{Name: "tag", Type: ir.I8},
		ir.StructField{Name: "val", Type: ir.I64},
	)
	arr := b.GlobalVar("recs", ir.Ptr(rec))

	hot := b.NewFunc("hot", ir.I64, ir.P("n", ir.I32))
	{
		acc := b.Alloca(ir.I64)
		b.Store(acc, ir.Int64(0))
		r := b.Load(arr)
		b.For("sum", ir.Int(0), b.Mul(b.F.Params[0], ir.Int(400)), ir.Int(1), func(i ir.Value) {
			p := b.Index(r, b.Rem(i, ir.Int(64)))
			b.Store(acc, b.Add(b.Load(acc), b.Load(b.Field(p, 1))))
		})
		b.Ret(b.Load(acc))
	}

	b.NewFunc("main", ir.I32)
	raw := b.CallExtern(ir.ExternMalloc, ir.Int(64*16))
	r := b.Convert(ir.ConvBitcast, raw, ir.Ptr(rec))
	b.Store(arr, r)
	b.For("init", ir.Int(0), ir.Int(64), ir.Int(1), func(i ir.Value) {
		p := b.Index(r, i)
		b.Store(b.Field(p, 0), ir.Int8(1))
		b.Store(b.Field(p, 1), ir.Int64(7))
	})
	v := b.Call(hot, ir.Int(20))
	b.Ret(b.Convert(ir.ConvTrunc, v, ir.I32))
	b.Finish()
	return mod
}

func TestLayoutRealignmentIsLoadBearing(t *testing.T) {
	const cost = 3000

	cres := compilePair(t, buildLayoutSensitive(), cost)
	want, err := runPair(t, cres, cost)
	if err != nil {
		t.Fatal(err)
	}
	if want != 64*7*20*400/64 {
		t.Fatalf("with realignment: got %d, want %d", want, 64*7*20*400/64)
	}

	// Break realignment: re-lower the server binary against an IA32-style
	// layout that packs the i64 at offset 4 instead of 8 — the Figure 4
	// situation. The server now reads val from the wrong offset.
	cres2 := compilePair(t, buildLayoutSensitive(), cost)
	ir.Lower(cres2.Server, arch.X8664(), arch.IA32())
	got, err := runPair(t, cres2, cost)
	if err == nil && got == want {
		t.Fatal("without layout realignment the server still read correct data; the Figure 4 bug did not manifest")
	}
	t.Logf("without realignment: code=%d err=%v (garbage as expected)", got, err)
}
