package interp_test

import (
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/profile"
	"repro/internal/simtime"
	"repro/internal/workloads"
)

// program is one differential subject: a module, its input and its cost
// amplification.
type program struct {
	name      string
	mod       *ir.Module
	io        func() *interp.StdIO
	costScale int64
}

// tableFourPrograms returns every registered SPEC-like workload (with its
// profiling input) plus the chess running example.
func tableFourPrograms() []program {
	var progs []program
	for _, w := range workloads.All() {
		progs = append(progs, program{w.Name, w.Build(), w.ProfileIO, w.CostScale})
	}
	return append(progs, program{
		name:      "chess",
		mod:       workloads.BuildChess(workloads.DefaultChessConfig()),
		io:        func() *interp.StdIO { return workloads.ChessInput(5, 1) },
		costScale: workloads.ChessCostScale,
	})
}

// bind lowers a clone of mod for spec/std and binds one instance of it.
func bind(t *testing.T, mod *ir.Module, spec, std *arch.Spec, io *interp.StdIO, costScale int64) *interp.Machine {
	t.Helper()
	work := mod.Clone(mod.Name)
	ir.Lower(work, spec, std)
	prog, err := interp.Compile(work, interp.CompileConfig{
		Name: "equiv", Spec: spec, Std: std, InitUVAGlobals: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return prog.NewInstance(interp.WithIO(io), interp.WithCostScale(costScale))
}

// engineResult captures everything the two engines must agree on for one
// standalone (non-offloaded) run of a program.
type engineResult struct {
	code   int32
	errStr string
	out    string
	steps  int64
	clock  simtime.PS
	comp   [interp.NumComponents]simtime.PS
	digest uint64
}

func runWorkloadEngine(t *testing.T, mod *ir.Module, io *interp.StdIO, costScale int64, oracle bool) engineResult {
	t.Helper()
	arm := arch.ARM32()
	m := bind(t, mod, arm, arm, io, costScale)
	run := m.RunMain
	if oracle {
		run = func() (int32, error) { return interp.RunMainOracle(m) }
	}
	var r engineResult
	var err error
	r.code, err = run()
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

// TestEngineEquivalenceAllWorkloads runs every registered SPEC-like workload
// plus the chess running example on the pre-decoded engine and on the
// tree-walking oracle and demands bit-identical results: output, exit code,
// instruction count, simulated clock, per-component buckets, and the
// semantic memory digest. This is the "all example programs" leg of the
// differential acceptance criteria (the random-program leg is
// TestEngineDifferentialRandomPrograms).
func TestEngineEquivalenceAllWorkloads(t *testing.T) {
	for _, p := range tableFourPrograms() {
		t.Run(p.name, func(t *testing.T) {
			fast := runWorkloadEngine(t, p.mod, p.io(), p.costScale, false)
			ref := runWorkloadEngine(t, p.mod, p.io(), p.costScale, true)
			if fast.errStr != ref.errStr {
				t.Fatalf("error mismatch:\n fast: %q\n  ref: %q", fast.errStr, ref.errStr)
			}
			if fast.code != ref.code {
				t.Errorf("exit code: fast %d, ref %d", fast.code, ref.code)
			}
			if fast.out != ref.out {
				t.Errorf("output mismatch:\n fast: %q\n  ref: %q", fast.out, ref.out)
			}
			if fast.steps != ref.steps {
				t.Errorf("steps: fast %d, ref %d", fast.steps, ref.steps)
			}
			if fast.clock != ref.clock {
				t.Errorf("clock: fast %v, ref %v", fast.clock, ref.clock)
			}
			if fast.comp != ref.comp {
				t.Errorf("component buckets: fast %v, ref %v", fast.comp, ref.comp)
			}
			if fast.digest != ref.digest {
				t.Errorf("memory digest: fast %#x, ref %#x", fast.digest, ref.digest)
			}
		})
	}
}

// profileRun is one profiling run's report plus the machine counters.
type profileRun struct {
	rep    *profile.Report
	errStr string
	steps  int64
	clock  simtime.PS
}

// profileFast is the production profiling path: profile.Run, which runs the
// pre-decoded engine with the profiler's Listener and Touch hooks attached.
func profileFast(m *interp.Machine) profileRun {
	rep, err := profile.Run(m)
	r := profileRun{rep: rep, steps: m.Steps, clock: m.Clock}
	if err != nil {
		r.errStr = err.Error()
	}
	return r
}

// profileOracle attaches the same profiler and runs main() on the
// tree-walking oracle.
func profileOracle(t *testing.T, m *interp.Machine) profileRun {
	t.Helper()
	p, err := profile.Attach(m)
	if err != nil {
		t.Fatal(err)
	}
	start := m.Clock
	_, err = interp.RunMainOracle(m)
	p.Detach()
	r := profileRun{steps: m.Steps, clock: m.Clock}
	if err != nil {
		r.errStr = err.Error()
	} else {
		r.rep = p.Report(m.Clock - start)
	}
	return r
}

func compareProfiles(t *testing.T, label string, fast, ref profileRun) {
	t.Helper()
	if fast.errStr != ref.errStr {
		t.Errorf("%s: error: fast=%q ref=%q", label, fast.errStr, ref.errStr)
		return
	}
	if fast.steps != ref.steps || fast.clock != ref.clock {
		t.Errorf("%s: steps/clock: fast=%d/%dps ref=%d/%dps", label, fast.steps, fast.clock, ref.steps, ref.clock)
	}
	if fast.rep == nil {
		return
	}
	if fast.rep.Total != ref.rep.Total {
		t.Errorf("%s: Total: fast=%dps ref=%dps", label, fast.rep.Total, ref.rep.Total)
	}
	if len(fast.rep.ByName) != len(ref.rep.ByName) {
		t.Errorf("%s: %d candidates on fast, %d on ref", label, len(fast.rep.ByName), len(ref.rep.ByName))
	}
	for name, r := range ref.rep.ByName {
		f := fast.rep.ByName[name]
		if f == nil {
			t.Errorf("%s: candidate %s missing on fast", label, name)
			continue
		}
		if f.Time != r.Time || f.SelfTime != r.SelfTime || f.Invocations != r.Invocations || f.Pages != r.Pages {
			t.Errorf("%s: %s: fast time=%dps self=%dps inv=%d pages=%d, ref time=%dps self=%dps inv=%d pages=%d",
				label, name, f.Time, f.SelfTime, f.Invocations, f.Pages, r.Time, r.SelfTime, r.Invocations, r.Pages)
		}
	}
}

// TestProfileMatchesOracle holds the production profiling path (the
// Listener hooks of the pre-decoded engine) to the tree-walking oracle: the
// report's Total and, per function and loop candidate, Time, SelfTime,
// Invocations and Pages, plus the machine's Steps and Clock, must be equal
// on every Table 4 workload, chess, and the random differential programs
// across the arch matrix.
func TestProfileMatchesOracle(t *testing.T) {
	for _, p := range tableFourPrograms() {
		t.Run(p.name, func(t *testing.T) {
			arm := arch.ARM32()
			fast := profileFast(bind(t, p.mod, arm, arm, p.io(), p.costScale))
			ref := profileOracle(t, bind(t, p.mod, arm, arm, p.io(), p.costScale))
			if ref.errStr != "" {
				t.Fatalf("oracle profiling run failed: %s", ref.errStr)
			}
			compareProfiles(t, p.name, fast, ref)
		})
	}
	t.Run("random", func(t *testing.T) {
		seeds := 110
		if testing.Short() {
			seeds = 25
		}
		arm, x86, ppc := arch.ARM32(), arch.X8664(), arch.POWER32BE()
		specs := [][2]*arch.Spec{{arm, arm}, {x86, x86}, {ppc, ppc}, {x86, arm}, {ppc, arm}}
		for seed := 0; seed < seeds; seed++ {
			mod := interp.GenProgram(int64(seed))
			for _, sp := range specs {
				label := fmt.Sprintf("seed=%d %s/std=%s", seed, sp[0].Name, sp[1].Name)
				fast := profileFast(bind(t, mod, sp[0], sp[1], interp.NewStdIO(nil), 1))
				ref := profileOracle(t, bind(t, mod, sp[0], sp[1], interp.NewStdIO(nil), 1))
				compareProfiles(t, label, fast, ref)
				if t.Failed() {
					t.Fatalf("%s: profiles diverged", label)
				}
			}
		}
	})
}
