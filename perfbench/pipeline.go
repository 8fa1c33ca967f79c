package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/arch"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/estimate"
	"repro/internal/experiments"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/offrt"
	"repro/internal/profile"
	"repro/internal/workloads"
)

// programDigest is one program's simulated outputs: the times, energies,
// wire traffic and offload counts of its local run and of its offloaded
// runs on the fast and the slow network, plus a hash of its output.
type programDigest struct {
	Program      string  `json:"program"`
	OutputSHA    string  `json:"output_sha"`
	LocalPS      int64   `json:"local_ps"`
	FastPS       int64   `json:"fast_ps"`
	SlowPS       int64   `json:"slow_ps"`
	LocalMJ      float64 `json:"local_mj"`
	FastMJ       float64 `json:"fast_mj"`
	SlowMJ       float64 `json:"slow_mj"`
	FastBytes    int64   `json:"fast_wire_bytes"`
	SlowBytes    int64   `json:"slow_wire_bytes"`
	FastOffloads int     `json:"fast_offloads"`
	SlowOffloads int     `json:"slow_offloads"`
	FastDeclines int     `json:"fast_declines"`
	SlowDeclines int     `json:"slow_declines"`
}

// runOutputs is what the digest is built from: the three executions of
// one program, as core.Framework reports them.
type runOutputs struct {
	local      *core.LocalResult
	fast, slow *core.OffloadResult
}

func digestOf(name string, r runOutputs) programDigest {
	sum := sha256.Sum256([]byte(r.local.Output))
	wire := func(o *core.OffloadResult) int64 { return o.LinkStats.BytesToServer + o.LinkStats.BytesToMobile }
	return programDigest{
		Program: name, OutputSHA: hex.EncodeToString(sum[:8]),
		LocalPS: int64(r.local.Time), FastPS: int64(r.fast.Time), SlowPS: int64(r.slow.Time),
		LocalMJ: r.local.EnergyMJ, FastMJ: r.fast.EnergyMJ, SlowMJ: r.slow.EnergyMJ,
		FastBytes: wire(r.fast), SlowBytes: wire(r.slow),
		FastOffloads: r.fast.Stats.Offloads, SlowOffloads: r.slow.Stats.Offloads,
		FastDeclines: r.fast.Stats.Declines, SlowDeclines: r.slow.Stats.Declines,
	}
}

// checkOutputs fails a program whose offloaded runs printed something
// other than its local run.
func checkOutputs(r runOutputs) error {
	if r.fast.Output != r.local.Output {
		return fmt.Errorf("fast-network offloaded output diverged from the local output")
	}
	if r.slow.Output != r.local.Output {
		return fmt.Errorf("slow-network offloaded output diverged from the local output")
	}
	return nil
}

// programRun is one program's pipeline as a unit kept it for verify.
type programRun struct {
	program string
	digest  programDigest
	err     error
	traced  bool
}

// pipeline is the paper's whole compiler+runtime path over the 17
// Table 4 programs: profile, compile/partition, local run and the two
// offloaded runs. Its inputs are the paper's fixed evaluation set.
type pipeline struct {
	ref  *reference
	ws   []*workloads.Workload
	runs []programRun
}

func newPipeline(ref *reference) *pipeline { return &pipeline{ref: ref} }

func (p *pipeline) shards() int { return 0 }

// setup builds every program's module and both of its inputs, the work
// an offloadrun process does before its pipeline starts.
func (p *pipeline) setup() error {
	ws := workloads.All()
	for _, w := range ws {
		if mod := w.Build(); mod == nil {
			return fmt.Errorf("%s: front end built no module", w.Name)
		}
		w.ProfileIO()
		w.EvalIO()
	}
	p.ws = ws
	return nil
}

// prepare installs a fresh compilation cache, so each pass pays compile
// cost the way one offloadrun process does.
func (p *pipeline) prepare() { core.DefaultCache = interp.NewCompilationCache() }

// unit is one pass of experiments.RunProgram over all programs.
func (p *pipeline) unit() {
	for _, w := range p.ws {
		pr := programRun{program: w.Name}
		r, err := experiments.RunProgram(w)
		if err == nil {
			out := runOutputs{r.Local, r.Fast, r.Slow}
			pr.digest = digestOf(w.Name, out)
			pr.err = checkOutputs(out)
		} else {
			pr.err = err
		}
		p.runs = append(p.runs, pr)
	}
}

// traced is one pass in which the benchmark itself repeats the public
// calls core.Framework makes, each in a span under one root span per
// program, and returns the pass's per-layer values.
func (p *pipeline) traced(log *spanLog) map[string]float64 {
	from := len(log.spans)
	cache := core.DefaultCache
	var c layerCounts
	for _, w := range p.ws {
		root := log.begin("pipeline.program", -1)
		out, err := tracedProgram(w, log, root, &c)
		log.finish(root)
		pr := programRun{program: w.Name, err: err, traced: true}
		if err == nil {
			pr.digest = digestOf(w.Name, out)
			pr.err = checkOutputs(out)
		}
		p.runs = append(p.runs, pr)
	}
	self := selfByName(log.spans, from)
	sec := func(name string) float64 { return self[name].Seconds() }
	return map[string]float64{
		"workloads.build_s":        sec("workloads.build"),
		"ir.lower_s":               sec("ir.lower"),
		"interp.compile_s":         sec("interp.compile"),
		"interp.cache_hit_ratio":   cache.Stats().HitRate(),
		"interp.bind_s":            sec("interp.bind"),
		"profile.run_s":            sec("profile.run"),
		"profile.alloc_mb":         mib(c.profileAlloc),
		"profile.steps":            float64(c.profileSteps),
		"compiler.compile_s":       sec("compiler.compile"),
		"compiler.targets":         float64(c.targets),
		"interp.local_s":           sec("interp.local"),
		"interp.local_steps_per_s": ratio(float64(c.localSteps), sec("interp.local")),
		"offrt.fast_s":             sec("offrt.fast"),
		"offrt.slow_s":             sec("offrt.slow"),
		"offrt.steps_per_s":        ratio(float64(c.offloadSteps), sec("offrt.fast")+sec("offrt.slow")),
		"offrt.alloc_mb":           mib(c.offloadAlloc),
		"offrt.offloads":           float64(c.offloads),
		"offrt.declines":           float64(c.declines),
		"offrt.page_faults":        float64(c.pageFaults),
		"offrt.dirty_pages":        float64(c.dirtyPages),
		"netsim.bytes":             float64(c.wireBytes),
		"bench.unattributed_s":     sec("pipeline.program"),
	}
}

// layerCounts accumulates a traced pass's exact counts and allocations.
type layerCounts struct {
	profileAlloc, offloadAlloc  uint64
	profileSteps, localSteps    int64
	offloadSteps                int64
	targets, offloads, declines int
	pageFaults, dirtyPages      int
	wireBytes                   int64
}

// tracedProgram is experiments.RunProgram spelled out call by call, the
// way core.Framework's Profile, Compile, RunLocal and RunOffloaded make
// them, so each layer's share of the pipeline gets its own span.
func tracedProgram(w *workloads.Workload, log *spanLog, root int, c *layerCounts) (runOutputs, error) {
	fast := core.NewFramework(core.FastNetwork).WithScale(workloads.Scale, w.CostScale)
	slow := core.NewFramework(core.SlowNetwork).WithScale(workloads.Scale, w.CostScale)

	var mod *ir.Module
	var profIO, evalIO, fastIO, slowIO *interp.StdIO
	log.do("workloads.build", root, func() {
		mod = w.Build()
		profIO, evalIO, fastIO, slowIO = w.ProfileIO(), w.EvalIO(), w.EvalIO(), w.EvalIO()
	})

	// Profile (core.Framework.Profile).
	m, err := bindLowered(log, root, fast, mod, "profile:", interp.CompileConfig{
		Name: "profiler", Spec: fast.Mobile, InitUVAGlobals: true,
	}, profIO)
	if err != nil {
		return runOutputs{}, fmt.Errorf("profile: %w", err)
	}
	var prof *profile.Report
	before := readMem()
	log.do("profile.run", root, func() { prof, err = profile.Run(m) })
	c.profileAlloc += readMem().TotalAlloc - before.TotalAlloc
	c.profileSteps += m.Steps
	if err != nil {
		return runOutputs{}, fmt.Errorf("profile: %w", err)
	}

	// Compile (core.Framework.Compile).
	opt := compiler.Default(fast.Link.BandwidthBps)
	opt.Mobile, opt.Server, opt.RemoteIO = fast.Mobile, fast.Server, fast.RemoteIO
	opt.Est = estimate.Params{
		R:            arch.PerformanceRatio(fast.Mobile, fast.Server),
		BandwidthBps: fast.Link.BandwidthBps,
		RTT:          2 * (fast.Link.Latency + fast.Link.PerMessage),
	}
	var cres *compiler.Result
	log.do("compiler.compile", root, func() { cres, err = compiler.Compile(mod, prof, opt) })
	if err != nil {
		return runOutputs{}, fmt.Errorf("compile: %w", err)
	}
	c.targets += len(cres.Targets)

	// Local run (core.Framework.RunLocal).
	m, err = bindLowered(log, root, fast, mod, "local:", interp.CompileConfig{
		Name: "mobile", Spec: fast.Mobile, InitUVAGlobals: true,
	}, evalIO)
	if err != nil {
		return runOutputs{}, fmt.Errorf("local: %w", err)
	}
	var code int32
	log.do("interp.local", root, func() { code, err = m.RunMain() })
	if err != nil {
		return runOutputs{}, fmt.Errorf("local: %w", err)
	}
	c.localSteps += m.Steps
	local := &core.LocalResult{
		Code: code, Time: m.Clock, EnergyMJ: energy.LocalEnergyMJ(fast.Power, m.Clock), Output: evalIO.Out.String(),
	}

	// The two offloaded runs (core.Framework.RunOffloaded).
	offFast, err := tracedOffload(log, root, "offrt.fast", fast, cres, fastIO, c)
	if err != nil {
		return runOutputs{}, fmt.Errorf("fast offload: %w", err)
	}
	offSlow, err := tracedOffload(log, root, "offrt.slow", slow, cres, slowIO, c)
	if err != nil {
		return runOutputs{}, fmt.Errorf("slow offload: %w", err)
	}
	return runOutputs{local, offFast, offSlow}, nil
}

// bindLowered clones and lowers mod for the mobile machine, compiles it
// through the framework's cache and binds one instance on io.
func bindLowered(log *spanLog, root int, fw *core.Framework, mod *ir.Module, prefix string, cfg interp.CompileConfig, io *interp.StdIO) (*interp.Machine, error) {
	var work *ir.Module
	log.do("ir.lower", root, func() {
		work = mod.Clone(prefix + mod.Name)
		ir.Lower(work, fw.Mobile, fw.Mobile)
	})
	var prog *interp.Program
	var err error
	log.do("interp.compile", root, func() { prog, err = interp.Compile(work, cfg, fw.Cache) })
	if err != nil {
		return nil, err
	}
	var m *interp.Machine
	log.do("interp.bind", root, func() {
		m = prog.NewInstance(interp.WithIO(io), interp.WithCostScale(fw.CostScale), interp.WithEngine(fw.Engine))
	})
	return m, nil
}

// tracedOffload is core.Framework.RunOffloaded with no faults, tiers or
// sampling: compile and bind the binary pair, then one session.
func tracedOffload(log *spanLog, root int, name string, fw *core.Framework, cres *compiler.Result, io *interp.StdIO, c *layerCounts) (*core.OffloadResult, error) {
	var mobileProg, serverProg *interp.Program
	var err, serr error
	log.do("interp.compile", root, func() {
		mobileProg, err = interp.Compile(cres.Mobile, interp.CompileConfig{
			Name: "mobile", Spec: fw.Mobile, Std: fw.Mobile,
			FuncBase: mem.FuncBaseMobile, InitUVAGlobals: true,
		}, fw.Cache)
		serverProg, serr = interp.Compile(cres.Server, interp.CompileConfig{
			Name: "server", Spec: fw.Server, Std: fw.Mobile,
			FuncBase: mem.FuncBaseServer, ShuffleFuncs: true, ShuffleGlobals: true,
		}, fw.Cache)
	})
	if err != nil {
		return nil, fmt.Errorf("mobile program: %w", err)
	}
	if serr != nil {
		return nil, fmt.Errorf("server program: %w", serr)
	}
	var mobile, server *interp.Machine
	log.do("interp.bind", root, func() {
		mobile = mobileProg.NewInstance(interp.WithIO(io), interp.WithCostScale(fw.CostScale), interp.WithEngine(fw.Engine))
		server = serverProg.NewInstance(interp.WithCostScale(fw.CostScale), interp.WithEngine(fw.Engine))
	})
	var tasks []offrt.TaskSpec
	for _, t := range cres.Targets {
		tasks = append(tasks, offrt.TaskSpec{
			TaskID: t.TaskID, Name: t.Name, TimePerInvocation: t.TimePerInvocation, MemBytes: t.MemBytes,
		})
	}
	var sess *offrt.Session
	var code int32
	before := readMem()
	log.do(name, root, func() {
		sess, err = offrt.NewSession(mobile, server, fw.Link, offrt.WithTasks(tasks...), offrt.WithPolicy(offrt.Policy{}))
		if err == nil {
			code, err = sess.RunMobile()
		}
	})
	c.offloadAlloc += readMem().TotalAlloc - before.TotalAlloc
	if err != nil {
		return nil, err
	}
	c.offloadSteps += mobile.Steps + server.Steps
	c.offloads += sess.Stats.Offloads
	c.declines += sess.Stats.Declines
	c.pageFaults += sess.Stats.Faults
	c.dirtyPages += sess.Stats.DirtyPages
	c.wireBytes += sess.LinkStats.BytesToServer + sess.LinkStats.BytesToMobile
	return &core.OffloadResult{
		Code: code, Time: mobile.Clock, EnergyMJ: sess.Recorder.EnergyMJ(fw.Power), Output: io.Out.String(),
		LinkStats: sess.LinkStats, Stats: sess.Stats,
	}, nil
}

// verify checks every program run of every pass: no error, offloaded
// output equal to local output, and a digest equal to the stored
// reference, so a traced pass that matches it reproduces the untraced
// passes.
func (p *pipeline) verify(t *tally) {
	for _, r := range p.runs {
		what := r.program
		if r.traced {
			what += " (traced)"
		}
		if r.err != nil {
			t.op(what, r.err)
			continue
		}
		t.op(what, p.ref.checkProgram(r.digest))
	}
}
