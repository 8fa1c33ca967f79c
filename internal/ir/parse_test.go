package ir

import (
	"strings"
	"testing"
)

// roundtrip parses the module's printed form and checks the reparse prints
// identically.
func roundtrip(t *testing.T, m *Module) *Module {
	t.Helper()
	text := m.String()
	got, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse: %v\n--- input ---\n%s", err, text)
	}
	if got.String() != text {
		t.Fatalf("roundtrip differs:\n--- original ---\n%s\n--- reparsed ---\n%s", text, got.String())
	}
	return got
}

func TestParseRoundTripSum(t *testing.T) {
	m := NewModule("sum")
	buildSumFunc(m)
	roundtrip(t, m)
}

func TestParseRoundTripStructsAndGlobals(t *testing.T) {
	m := NewModule("structs")
	move := Struct("Move",
		StructField{Name: "from", Type: I8},
		StructField{Name: "to", Type: I8},
		StructField{Name: "score", Type: F64},
	)
	b := NewBuilder(m)
	sig := Signature(F64, Ptr(move))
	ev := b.NewFunc("eval", F64, P("p", Ptr(move)))
	b.Ret(b.Load(b.Field(ev.Params[0], 2)))
	b.GlobalVar("evals", Array(Ptr(sig), 2), ev, ev)
	b.GlobalVar("depth", I32, Int(7))
	g := b.GlobalVar("uvaG", I64)
	g.Home, g.UVAAddr = HomeUVA, 0x1000_0040

	b.NewFunc("main", I32)
	mv := b.Alloca(move)
	b.Store(b.Field(mv, 2), Float(1.5))
	fp := b.Load(b.Index(m.Global("evals"), Int(1)))
	s := b.CallPtr(fp, sig, mv)
	b.CallExtern(ExternPrintf, b.Str("%f\n"), s)
	b.Ret(Int(0))
	b.Finish()

	got := roundtrip(t, m)
	st := got.Global("uvaG")
	if st.Home != HomeUVA || st.UVAAddr != 0x1000_0040 {
		t.Error("UVA home lost in roundtrip")
	}
	if len(got.NamedStructs()) != 1 || got.NamedStructs()[0].Name != "Move" {
		t.Error("struct definition lost")
	}
}

func TestParseRoundTripControlFlowAndConversions(t *testing.T) {
	m := NewModule("cf")
	b := NewBuilder(m)
	f := b.NewFunc("mix", F64, P("n", I32), P("x", F64))
	acc := b.Alloca(F64)
	b.Store(acc, f.Params[1])
	b.For("loop", Int(0), f.Params[0], Int(1), func(i Value) {
		fv := b.Convert(ConvIntToFP, i, F64)
		b.If(b.Cmp(GT, fv, Float(2)), func() {
			b.Store(acc, b.Add(b.Load(acc), fv))
		}, func() {
			b.Store(acc, b.Mul(b.Load(acc), Float(1.25)))
		})
	})
	b.Ret(b.Load(acc))
	b.NewFunc("main", I32)
	r := b.Call(f, Int(5), Float(0.5))
	b.Ret(b.Convert(ConvFPToInt, r, I32))
	b.Finish()
	roundtrip(t, m)
}

func TestParsePreservesTaskAndStack(t *testing.T) {
	m := NewModule("attrs")
	m.StackBase = 0x5FFF_F000
	m.Unified = true
	b := NewBuilder(m)
	hot := b.NewFunc("hot", I32, P("x", I32))
	hot.TaskID = 3
	b.Ret(b.F.Params[0])
	b.Finish()
	got := roundtrip(t, m)
	if got.StackBase != 0x5FFF_F000 || !got.Unified {
		t.Error("module attributes lost")
	}
	if got.Func("hot").TaskID != 3 {
		t.Error("task id lost")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"", // no module header
		"module x (stack 0x10)\nfunc @f() i32 {\nentry:\n  ret %undefined\n}\n",
		"module x (stack 0x10)\nglobal @g %NoSuchStruct\n",
		"module x (stack 0x10)\nfunc @f() i32 {\nentry:\n  frobnicate\n}\n",
	}
	for i, c := range cases {
		if _, err := Parse(c); err == nil {
			t.Errorf("case %d: expected a parse error", i)
		}
	}
}

func TestParseDeclareRestoresExternKinds(t *testing.T) {
	m := NewModule("ext")
	b := NewBuilder(m)
	b.NewFunc("main", I32)
	p := b.CallExtern(ExternUMalloc, Int(64))
	b.CallExtern(ExternMemset, p, Int(0), Int(64))
	b.Ret(Int(0))
	b.Finish()
	got := roundtrip(t, m)
	if got.Func("u_malloc").Extern != ExternUMalloc {
		t.Error("u_malloc extern kind lost")
	}
	if got.Func("memset").Extern != ExternMemset {
		t.Error("memset extern kind lost")
	}
}

func TestParsedModuleRunsIdentically(t *testing.T) {
	// The real proof: a reparsed module must compute the same value. (The
	// interp package cannot be imported here; structural equality of the
	// printed form plus Verify is the package-local check, and
	// interp/parseexec_test.go covers execution.)
	m := NewModule("exec")
	buildSumFunc(m)
	got := roundtrip(t, m)
	if err := Verify(got); err != nil {
		t.Fatal(err)
	}
	if got.Func("sum").NumSlots == 0 {
		t.Error("reparsed functions not renumbered")
	}
	if !strings.Contains(got.String(), "for_i.cond") {
		t.Error("block labels lost")
	}
}

func TestParseRejectsDanglingLabel(t *testing.T) {
	src := "module x (stack 0x10)\nfunc @f() i32 {\nentry:\n  br nowhere\n}\n"
	if _, err := Parse(src); err == nil {
		t.Error("branch to undefined label accepted")
	}
}

func TestParseRejectsUnclosedBody(t *testing.T) {
	for _, src := range []string{
		"module x (stack 0x10)\nfunc @f() i32 {\nentry:\n  br nowhere\n",
		"module x (stack 0x10)\nfunc @f() i32 {\nentry:\n  ret i32 0\nfunc @g() i32 {\nentry:\n  ret i32 0\n}\n",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("body without closing brace accepted:\n%s", src)
		}
	}
}

func TestParseRejectsDuplicateLabelsAndFuncs(t *testing.T) {
	dupBlock := "module x (stack 0x10)\nfunc @f() i32 {\nentry:\n  br entry\nentry:\n  ret i32 0\n}\n"
	if _, err := Parse(dupBlock); err == nil {
		t.Error("duplicate block label accepted")
	}
	dupFunc := "module x (stack 0x10)\nfunc @f() i32 {\nentry:\n  ret i32 0\n}\nfunc @f() i32 {\nentry:\n  ret i32 0\n}\n"
	if _, err := Parse(dupFunc); err == nil {
		t.Error("duplicate function accepted")
	}
}
