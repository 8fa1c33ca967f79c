// Package profile implements the hot function/loop profiler of Section 3.1.
//
// The profiler attaches to an interpreter Machine as an execution listener
// and measures, for every function and every natural loop, the metrics the
// performance estimator consumes (Table 3): cumulative execution time,
// invocation count, and memory footprint (distinct pages touched while the
// candidate is live). Profiling runs use a *profiling input*; the paper
// evaluates with a different input, and so do the workloads here.
package profile

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/ir/analysis"
	"repro/internal/mem"
	"repro/internal/simtime"
)

// CandidateKind distinguishes function candidates from loop candidates.
type CandidateKind int

const (
	KindFunc CandidateKind = iota
	KindLoop
)

// Candidate identifies one profiled region: a function, or a natural loop
// within a function.
type Candidate struct {
	Kind CandidateKind
	Fn   *ir.Func
	Loop *analysis.Loop // nil for functions
}

// Name returns the candidate's report name, e.g. "getAITurn" or
// "getAITurn/for_i". Loop offload targets in the paper print as
// "<fn>_<loop>" (e.g. main_for.cond); Display follows that convention.
func (c Candidate) Name() string {
	if c.Kind == KindFunc {
		return c.Fn.Nam
	}
	return c.Fn.Nam + "/" + c.Loop.Name()
}

// Display returns the paper-style target name.
func (c Candidate) Display() string {
	if c.Kind == KindFunc {
		return c.Fn.Nam
	}
	return c.Fn.Nam + "_" + c.Loop.Header.Nam
}

// Stats aggregates one candidate's measurements.
type Stats struct {
	Candidate Candidate
	// Time is cumulative execution time spent with the candidate live
	// (inclusive of callees, like the paper's 26.0s for getAITurn within
	// 27.0s runGame).
	Time simtime.PS
	// SelfTime is the exclusive time: Time minus the time spent in called
	// functions (function candidates only; loops report zero).
	SelfTime simtime.PS
	// Invocations counts entries (calls, or loop entries).
	Invocations int
	// Pages is the number of distinct memory pages touched while live,
	// across all invocations.
	Pages int
	// MemBytes is Pages * PageSize: the estimator's M in Equation 1.
	MemBytes int64

	// active counts live activations so recursive re-entry is not
	// double-counted: time accumulates only when the outermost activation
	// exits.
	active  int
	pageSet map[uint32]struct{}
}

// Report is the result of one profiling run.
type Report struct {
	// Total is the whole-program execution time on the profiling machine.
	Total simtime.PS
	// ByName maps candidate Name() to stats.
	ByName map[string]*Stats
}

// Get returns stats for a candidate name ("fn" or "fn/loop").
func (r *Report) Get(name string) *Stats { return r.ByName[name] }

// Sorted returns all stats ordered by decreasing time, then name.
func (r *Report) Sorted() []*Stats {
	out := make([]*Stats, 0, len(r.ByName))
	for _, s := range r.ByName {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time > out[j].Time
		}
		return out[i].Candidate.Name() < out[j].Candidate.Name()
	})
	return out
}

// Coverage returns the fraction of total program time spent in the named
// candidate (Table 4 "Cover.").
func (r *Report) Coverage(name string) float64 {
	s := r.ByName[name]
	if s == nil || r.Total == 0 {
		return 0
	}
	return float64(s.Time) / float64(r.Total)
}

func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "profile: total %v\n", r.Total)
	for _, s := range r.Sorted() {
		fmt.Fprintf(&sb, "  %-28s time %12v  inv %6d  mem %8.2f MB\n",
			s.Candidate.Name(), s.Time, s.Invocations, float64(s.MemBytes)/(1<<20))
	}
	return sb.String()
}

// Profiler is an interp.Listener plus a memory touch hook.
type Profiler struct {
	machine *interp.Machine

	funcs     map[*ir.Func]*funcInfo
	loopStats map[*analysis.Loop]*Stats

	// stack holds the live activations, innermost last: each function
	// frame is followed by the frames of its open loops, outermost first.
	// Popped frames are overwritten by later pushes, so steady-state
	// calls allocate nothing.
	stack []activation
	// fn is the stack index of the innermost function frame, -1 if none.
	fn int
	// epoch is the last epoch handed to a pushed frame. Frames up the
	// stack hold strictly increasing epochs.
	epoch uint64

	// stamps holds each page's stamp: the epoch of the innermost
	// activation at the page's last touch, 0 if never touched under one.
	// It is a sparse two-level table keyed by page number whose rows are
	// allocated on first touch.
	stamps [1 << (32 - mem.PageShift - pageRowBits)]*[1 << pageRowBits]uint64
	// adds counts page insertions into live activations' candidates.
	adds int64
}

// pageRowBits sizes the rows of the stamp table: 1024 pages, 4 MiB of
// address space, per row.
const pageRowBits = 10

// activation is one live function or loop frame.
type activation struct {
	stats   *Stats
	epoch   uint64
	entered simtime.PS

	// Function frames only.
	fn    *ir.Func
	inner map[*ir.Block]*analysis.Loop // fn's funcInfo.inner
	cur   *analysis.Loop               // innermost loop containing the current block
	outer int                          // stack index of the enclosing function frame
	// calleeTime accumulates time spent in functions this activation
	// called, for self-time accounting.
	calleeTime simtime.PS

	// Loop frames only.
	loop *analysis.Loop
}

type funcInfo struct {
	stats *Stats
	// inner maps each block to its innermost containing loop (nil if
	// none); the map itself is nil when the function has no loops.
	inner map[*ir.Block]*analysis.Loop
}

// Attach builds a profiler for m and registers its hooks. Call Detach when
// done.
func Attach(m *interp.Machine) (*Profiler, error) {
	p := &Profiler{
		machine:   m,
		funcs:     make(map[*ir.Func]*funcInfo),
		loopStats: make(map[*analysis.Loop]*Stats),
		fn:        -1,
	}
	for _, f := range m.Mod.Funcs {
		if f.IsExtern() {
			continue
		}
		cfg, err := analysis.BuildCFG(f)
		if err != nil {
			return nil, err
		}
		forest := analysis.FindLoops(cfg, analysis.Dominators(cfg))
		fi := &funcInfo{stats: &Stats{Candidate: Candidate{Kind: KindFunc, Fn: f}}}
		if len(forest.Loops) > 0 {
			fi.inner = make(map[*ir.Block]*analysis.Loop)
		}
		// Loops are sorted outermost-first; later (inner) assignments win.
		for _, l := range forest.Loops {
			for b := range l.Blocks {
				if cur := fi.inner[b]; cur == nil || len(l.Blocks) < len(cur.Blocks) {
					fi.inner[b] = l
				}
			}
			p.loopStats[l] = &Stats{Candidate: Candidate{Kind: KindLoop, Fn: f, Loop: l}}
		}
		p.funcs[f] = fi
	}
	m.Listener = p
	m.Mem.Touch = p.onTouch
	return p, nil
}

// Detach removes the profiler's hooks from the machine.
func (p *Profiler) Detach() {
	p.machine.Listener = nil
	p.machine.Mem.Touch = nil
}

// PageAdds returns how many times a touch added its page to a live
// activation's candidate. The epoch rule visits an activation only the
// first time it sees a page, so this is the number of distinct
// (activation, page) pairs: the footprint bookkeeping's whole work.
func (p *Profiler) PageAdds() int64 { return p.adds }

// onTouch records page pn in the candidate of every live activation that
// has not seen it yet. The page's stamp is the epoch of the innermost
// activation at its last touch. Every activation with an epoch at or
// below the stamp was live then and already holds the page; every one
// above it was pushed after that touch. Epochs increase up the stack, so
// the walk from the innermost frame stops at the first one at or below
// the stamp, and a touch under the same innermost frame costs one lookup.
func (p *Profiler) onTouch(pn uint32) {
	n := len(p.stack)
	if n == 0 {
		return
	}
	top := p.stack[n-1].epoch
	row := p.stamps[pn>>pageRowBits]
	if row == nil {
		row = new([1 << pageRowBits]uint64)
		p.stamps[pn>>pageRowBits] = row
	}
	stamp := &row[pn&(1<<pageRowBits-1)]
	last := *stamp
	if last == top {
		return
	}
	*stamp = top
	for i := n - 1; i >= 0; i-- {
		a := &p.stack[i]
		if a.epoch <= last {
			break
		}
		a.stats.addPage(pn)
		p.adds++
	}
}

// addPage adds page pn to the candidate's set.
func (st *Stats) addPage(pn uint32) {
	if st.pageSet == nil {
		st.pageSet = make(map[uint32]struct{})
	}
	st.pageSet[pn] = struct{}{}
	st.Pages = len(st.pageSet)
	st.MemBytes = int64(st.Pages) * mem.PageSize
}

// EnterFunc implements interp.Listener.
func (p *Profiler) EnterFunc(m *interp.Machine, f *ir.Func) {
	fi := p.funcs[f]
	if fi == nil {
		return
	}
	st := fi.stats
	st.Invocations++
	st.active++
	p.epoch++
	p.stack = append(p.stack, activation{
		stats:   st,
		epoch:   p.epoch,
		entered: m.Clock,
		fn:      f,
		inner:   fi.inner,
		outer:   p.fn,
	})
	p.fn = len(p.stack) - 1
}

// ExitFunc implements interp.Listener.
func (p *Profiler) ExitFunc(m *interp.Machine, f *ir.Func) {
	if p.fn < 0 {
		return
	}
	// Close any loops still open (function returned from inside a loop).
	for i := len(p.stack) - 1; i > p.fn; i-- {
		closeLoop(m, &p.stack[i])
	}
	act := &p.stack[p.fn]
	p.stack = p.stack[:p.fn]
	p.fn = act.outer
	act.stats.active--
	elapsed := m.Clock - act.entered
	if act.stats.active == 0 {
		act.stats.Time += elapsed
	}
	act.stats.SelfTime += elapsed - act.calleeTime
	if p.fn >= 0 {
		p.stack[p.fn].calleeTime += elapsed
	}
}

// EnterBlock implements interp.Listener: it tracks loop entry and exit by
// watching the innermost-loop assignment of each executed block.
func (p *Profiler) EnterBlock(m *interp.Machine, f *ir.Func, b *ir.Block) {
	if p.fn < 0 {
		return
	}
	act := &p.stack[p.fn]
	if act.inner == nil || act.fn != f {
		return
	}
	target := act.inner[b]
	if target == act.cur {
		// Re-entering the header of the current loop is a new iteration,
		// not a new activation; nothing to do.
		return
	}
	act.cur = target
	// Close loops that do not contain the new block.
	for len(p.stack)-1 > p.fn {
		top := &p.stack[len(p.stack)-1]
		if loopContains(top.loop, target) {
			break
		}
		closeLoop(m, top)
		p.stack = p.stack[:len(p.stack)-1]
	}
	// The open loops now form target's ancestor chain from the outermost
	// loop down to the top frame's; open the rest of the chain.
	var open *analysis.Loop
	if len(p.stack)-1 > p.fn {
		open = p.stack[len(p.stack)-1].loop
	}
	p.openLoops(m, target, open)
}

// openLoops pushes frames for l and its ancestors below open, outermost
// first.
func (p *Profiler) openLoops(m *interp.Machine, l, open *analysis.Loop) {
	if l == open {
		return
	}
	p.openLoops(m, l.Parent, open)
	st := p.loopStats[l]
	st.Invocations++
	st.active++
	p.epoch++
	p.stack = append(p.stack, activation{stats: st, epoch: p.epoch, entered: m.Clock, loop: l})
}

func closeLoop(m *interp.Machine, la *activation) {
	la.stats.active--
	if la.stats.active == 0 {
		la.stats.Time += m.Clock - la.entered
	}
}

func loopContains(outer, inner *analysis.Loop) bool {
	for l := inner; l != nil; l = l.Parent {
		if l == outer {
			return true
		}
	}
	return false
}

// Run profiles one whole execution of the machine's main function and
// returns the report.
func Run(m *interp.Machine) (*Report, error) {
	p, err := Attach(m)
	if err != nil {
		return nil, err
	}
	defer p.Detach()
	start := m.Clock
	if _, err := m.RunMain(); err != nil {
		return nil, err
	}
	return p.Report(m.Clock - start), nil
}

// Report finalizes the collected statistics.
func (p *Profiler) Report(total simtime.PS) *Report {
	r := &Report{Total: total, ByName: make(map[string]*Stats)}
	for _, fi := range p.funcs {
		if st := fi.stats; st.Invocations > 0 {
			r.ByName[st.Candidate.Name()] = st
		}
	}
	for _, st := range p.loopStats {
		if st.Invocations > 0 {
			r.ByName[st.Candidate.Name()] = st
		}
	}
	return r
}
