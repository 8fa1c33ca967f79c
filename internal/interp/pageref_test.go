package interp_test

import (
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/ir/analysis"
	"repro/internal/profile"
)

// pageRef is the reference page recorder: the profiler's original
// footprint algorithm, kept as an independent check on its epoch rule.
// Every live function and loop activation owns a page map, a touch inserts
// the page into all of them, and an exit merges the activation's map into
// its candidate's set. It tracks loops exactly as the profiler does.
type pageRef struct {
	inner map[*ir.Func]map[*ir.Block]*analysis.Loop
	// sets maps candidate names to their page sets.
	sets  map[string]map[uint32]struct{}
	stack []*refFunc
	// adds counts insertions of a page an activation had not seen yet.
	adds int64
}

type refFunc struct {
	refFrame
	fn    *ir.Func
	loops []*refFrame
	cur   *analysis.Loop
}

type refFrame struct {
	name  string
	loop  *analysis.Loop
	pages map[uint32]struct{}
}

func newPageRef(t *testing.T, mod *ir.Module) *pageRef {
	t.Helper()
	r := &pageRef{
		inner: make(map[*ir.Func]map[*ir.Block]*analysis.Loop),
		sets:  make(map[string]map[uint32]struct{}),
	}
	for _, f := range mod.Funcs {
		if f.IsExtern() {
			continue
		}
		cfg, err := analysis.BuildCFG(f)
		if err != nil {
			t.Fatal(err)
		}
		inner := make(map[*ir.Block]*analysis.Loop)
		for _, l := range analysis.FindLoops(cfg, analysis.Dominators(cfg)).Loops {
			for b := range l.Blocks {
				if cur := inner[b]; cur == nil || len(l.Blocks) < len(cur.Blocks) {
					inner[b] = l
				}
			}
		}
		r.inner[f] = inner
	}
	return r
}

func (r *pageRef) add(set map[uint32]struct{}, pn uint32) {
	if _, ok := set[pn]; !ok {
		set[pn] = struct{}{}
		r.adds++
	}
}

func (r *pageRef) touch(pn uint32) {
	for _, a := range r.stack {
		r.add(a.pages, pn)
		for _, la := range a.loops {
			r.add(la.pages, pn)
		}
	}
}

func (r *pageRef) merge(fr *refFrame) {
	set := r.sets[fr.name]
	if set == nil {
		set = make(map[uint32]struct{})
		r.sets[fr.name] = set
	}
	for pn := range fr.pages {
		set[pn] = struct{}{}
	}
}

func (r *pageRef) EnterFunc(m *interp.Machine, f *ir.Func) {
	if _, ok := r.inner[f]; !ok {
		return
	}
	name := profile.Candidate{Kind: profile.KindFunc, Fn: f}.Name()
	r.stack = append(r.stack, &refFunc{refFrame: refFrame{name: name, pages: make(map[uint32]struct{})}, fn: f})
}

func (r *pageRef) ExitFunc(m *interp.Machine, f *ir.Func) {
	if len(r.stack) == 0 {
		return
	}
	a := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	for _, la := range a.loops {
		r.merge(la)
	}
	r.merge(&a.refFrame)
}

func (r *pageRef) EnterBlock(m *interp.Machine, f *ir.Func, b *ir.Block) {
	if len(r.stack) == 0 {
		return
	}
	a := r.stack[len(r.stack)-1]
	if a.fn != f {
		return
	}
	target := r.inner[f][b]
	if target == a.cur {
		return
	}
	for len(a.loops) > 0 {
		top := a.loops[len(a.loops)-1]
		if refContains(top.loop, target) {
			break
		}
		r.merge(top)
		a.loops = a.loops[:len(a.loops)-1]
	}
	var toOpen []*analysis.Loop
	for l := target; l != nil; l = l.Parent {
		already := false
		for _, la := range a.loops {
			if la.loop == l {
				already = true
				break
			}
		}
		if already {
			break
		}
		toOpen = append(toOpen, l)
	}
	for i := len(toOpen) - 1; i >= 0; i-- {
		l := toOpen[i]
		name := profile.Candidate{Kind: profile.KindLoop, Fn: f, Loop: l}.Name()
		a.loops = append(a.loops, &refFrame{name: name, loop: l, pages: make(map[uint32]struct{})})
	}
	a.cur = target
}

func refContains(outer, inner *analysis.Loop) bool {
	for l := inner; l != nil; l = l.Parent {
		if l == outer {
			return true
		}
	}
	return false
}

// teeListener forwards every event to the profiler, then the reference.
type teeListener struct{ a, b interp.Listener }

func (t teeListener) EnterFunc(m *interp.Machine, f *ir.Func) {
	t.a.EnterFunc(m, f)
	t.b.EnterFunc(m, f)
}

func (t teeListener) ExitFunc(m *interp.Machine, f *ir.Func) {
	t.a.ExitFunc(m, f)
	t.b.ExitFunc(m, f)
}

func (t teeListener) EnterBlock(m *interp.Machine, f *ir.Func, b *ir.Block) {
	t.a.EnterBlock(m, f, b)
	t.b.EnterBlock(m, f, b)
}

// comparePages profiles one run of m's main with the production profiler
// and the reference recorder attached to the same hooks, and requires
// equal per-candidate Pages and equal page-add counts. It returns the
// number of page adds.
func comparePages(t *testing.T, label string, m *interp.Machine) int64 {
	t.Helper()
	p, err := profile.Attach(m)
	if err != nil {
		t.Fatal(err)
	}
	ref := newPageRef(t, m.Mod)
	m.Listener = teeListener{p, ref}
	touch := m.Mem.Touch
	m.Mem.Touch = func(pn uint32) {
		touch(pn)
		ref.touch(pn)
	}
	start := m.Clock
	_, runErr := m.RunMain()
	p.Detach()
	rep := p.Report(m.Clock - start)
	for name, st := range rep.ByName {
		if want := len(ref.sets[name]); st.Pages != want {
			t.Errorf("%s: %s: Pages = %d, reference %d (run error: %v)", label, name, st.Pages, want, runErr)
		}
	}
	for name, set := range ref.sets {
		if rep.ByName[name] == nil && len(set) > 0 {
			t.Errorf("%s: %s: reference holds %d pages, profiler has no candidate", label, name, len(set))
		}
	}
	if p.PageAdds() != ref.adds {
		t.Errorf("%s: %d page adds, reference %d: the walk visits activations that already hold the page, or misses some",
			label, p.PageAdds(), ref.adds)
	}
	return ref.adds
}

// TestProfilePagesMatchReference holds the profiler's epoch-stamped page
// sets to the reference recorder on every Table 4 workload, chess and the
// random differential programs across the arch matrix: per-candidate
// Pages must be equal, and the number of (activation, page) insertions
// must match, so the walk visits exactly the activations that have not
// seen the page yet.
func TestProfilePagesMatchReference(t *testing.T) {
	for _, p := range tableFourPrograms() {
		t.Run(p.name, func(t *testing.T) {
			arm := arch.ARM32()
			if comparePages(t, p.name, bind(t, p.mod, arm, arm, p.io(), p.costScale)) == 0 {
				t.Error("no pages recorded")
			}
		})
	}
	t.Run("random", func(t *testing.T) {
		seeds := 110
		if testing.Short() {
			seeds = 25
		}
		arm, x86, ppc := arch.ARM32(), arch.X8664(), arch.POWER32BE()
		specs := [][2]*arch.Spec{{arm, arm}, {x86, x86}, {ppc, ppc}, {x86, arm}, {ppc, arm}}
		var adds int64
		for seed := 0; seed < seeds; seed++ {
			mod := interp.GenProgram(int64(seed))
			for _, sp := range specs {
				label := fmt.Sprintf("seed=%d %s/std=%s", seed, sp[0].Name, sp[1].Name)
				adds += comparePages(t, label, bind(t, mod, sp[0], sp[1], interp.NewStdIO(nil), 1))
				if t.Failed() {
					t.Fatalf("%s: page sets diverged", label)
				}
			}
		}
		if adds == 0 {
			t.Error("random programs recorded no pages")
		}
	})
}
