// Command offloadrun executes one workload locally and under the offload
// runtime on both network environments, printing the Figure 6/7-style
// summary for that single program.
//
// Usage:
//
//	offloadrun -w 445.gobmk
//	offloadrun -w chess -depth 9 -turns 2
//	offloadrun -w 164.gzip -faults "drop=0.2,outage=900ms-20s,seed=6"
//	offloadrun -w 429.mcf -tiers 3way
//
// -tiers places every offload over the mobile -> edge -> cloud
// hierarchy (3way, edge-only or cloud-only) instead of the classic
// binary gate, printing the per-tier placement counts after the run.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/offrt"
	"repro/internal/report"
	"repro/internal/simtime"
	"repro/internal/tiers"
	"repro/internal/workloads"
)

// observability carries the optional -trace/-metrics/-profile/-breakdown
// instrumentation through a run and writes/prints the artifacts at the end.
type observability struct {
	traceFile    string
	profileFile  string
	breakdown    bool
	critPath     bool
	exemplars    int
	tracer       *obs.Tracer
	metrics      *obs.Metrics
	faults       *faults.Plan
	serverFaults *faults.ServerPlan
	migrate      bool
	topo         *tiers.Topology
	sampleEvery  simtime.PS
}

func newObservability(traceFile, profileFile string, breakdown, wantMetrics, critPath bool, exemplars int) *observability {
	o := &observability{traceFile: traceFile, profileFile: profileFile, breakdown: breakdown,
		critPath: critPath, exemplars: exemplars}
	if traceFile != "" {
		o.tracer = obs.NewTracer(0)
	}
	if (breakdown || critPath) && o.tracer == nil {
		// The breakdown and critical-path analyses replay the trace; without
		// -trace, capture into a generous in-memory ring (never written to
		// disk).
		o.tracer = obs.NewTracer(1 << 20)
	}
	if wantMetrics {
		o.metrics = obs.NewMetrics()
	}
	if profileFile != "" {
		o.sampleEvery = interp.DefaultSamplePeriod
	}
	return o
}

// attach threads the instrumentation and fault plans into a framework.
func (o *observability) attach(fw *core.Framework) {
	fw.Tracer, fw.Metrics = o.tracer, o.metrics
	fw.Faults = o.faults
	fw.ServerFaults = o.serverFaults
	if o.migrate {
		m := offrt.DefaultMigration()
		fw.Migration = &m
	}
	fw.Tiers = o.topo
	fw.SampleEvery = o.sampleEvery
}

// reportRun prints/writes the per-run analysis artifacts for the offloaded
// execution the flags asked about: the folded flamegraph profile + top
// functions (-profile) and the Figure 6/7-shaped breakdown (-breakdown).
func (o *observability) reportRun(off *core.OffloadResult, model energy.PowerModel) {
	if o.profileFile != "" && off.MobileProf != nil {
		f, err := os.Create(o.profileFile)
		if err == nil {
			err = off.MobileProf.WriteFolded(f, "mobile")
			if err == nil {
				err = off.ServerProf.WriteFolded(f, "server")
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "offloadrun: profile:", err)
			os.Exit(1)
		}
		fmt.Printf("profile: %s (folded stacks; feed to flamegraph.pl or speedscope)\n", o.profileFile)
		fmt.Printf("  mobile: %d samples over %v; server: %d samples over %v\n",
			off.MobileProf.Samples(), simtime.PS(off.MobileProf.Total()),
			off.ServerProf.Samples(), simtime.PS(off.ServerProf.Total()))
		fmt.Println(experiments.ProfileTable(off.MobileProf, off.ServerProf, 15))
	}
	if o.breakdown && o.tracer != nil {
		evs := o.tracer.Events()
		fmt.Println(analyze.TimeTable(analyze.Breakdown(evs)))
		fmt.Println(analyze.RadioTable(analyze.Radio(evs, model)))
	}
	if o.critPath && o.tracer != nil {
		cs := analyze.Crit(o.tracer.Events()).Top(o.exemplars)
		fmt.Println(analyze.CritTable(cs))
		fmt.Println(analyze.WhereTable(cs, 0.99))
	}
	if o.topo != nil {
		fmt.Printf("tiers (%s): %d placed on edge, %d on cloud, %d kept local\n",
			o.topo.EffectiveMode(), off.Stats.EdgePlaced, off.Stats.CloudPlaced, off.Stats.Declines)
	}
}

// finish writes the Chrome trace file and prints the metrics summary.
func (o *observability) finish() {
	if w := o.tracer.DropWarning(); w != "" {
		fmt.Fprintln(os.Stderr, "offloadrun:", w)
	}
	o.tracer.PublishDropped(o.metrics)
	if o.tracer != nil && o.traceFile != "" {
		f, err := os.Create(o.traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "offloadrun: trace:", err)
			os.Exit(1)
		}
		if err := o.tracer.WriteChrome(f); err == nil {
			err = f.Close()
			if err == nil {
				fmt.Printf("trace: %d events -> %s (load in chrome://tracing or ui.perfetto.dev)\n",
					o.tracer.Len(), o.traceFile)
			}
		} else {
			f.Close()
			fmt.Fprintln(os.Stderr, "offloadrun: trace:", err)
			os.Exit(1)
		}
	}
	if o.metrics != nil {
		fmt.Println(report.MetricsTable("offload session metrics", o.metrics.Names(), o.metrics.Value))
		if hs := o.metrics.HistogramSummary(); hs != "" {
			fmt.Println(hs)
		}
	}
}

func main() {
	name := flag.String("w", "chess", "workload name (chess or a Table 4 program id)")
	irFile := flag.String("ir", "", "run a textual IR program file instead of a named workload")
	stdin := flag.String("stdin", "", "comma-separated integers fed to the program's scanf calls")
	cost := flag.Int64("cost", 1, "cost amplification for -ir programs")
	depth := flag.Int64("depth", 9, "chess difficulty (chess workload only)")
	turns := flag.Int64("turns", 2, "chess game turns (chess workload only)")
	showOut := flag.Bool("output", false, "print program output")
	traceFile := flag.String("trace", "", "write a Chrome trace_event JSON file of the offloaded run")
	profileFile := flag.String("profile", "", "write a folded-stack guest flamegraph profile of the offloaded run and print the top-functions table")
	breakdown := flag.Bool("breakdown", false, "print the per-offload time and radio-energy breakdown (Fig. 6/7 shape) replayed from the trace")
	critPath := flag.Bool("critpath", false, "print each job's critical-path decomposition and the where-the-tail-lives summary replayed from the trace")
	exemplars := flag.Int("exemplars", 0, "with -critpath: limit the per-job table to the N slowest jobs (0 keeps them all)")
	showMetrics := flag.Bool("metrics", false, "print the aggregated session metrics after the run")
	faultSpec := flag.String("faults", "", `inject link faults into the offloaded run, e.g. "drop=0.1,corrupt=0.02,outage=100ms-250ms,seed=7"`)
	serverFaultSpec := flag.String("server-faults", "", `inject server faults into the offloaded run, e.g. "crash=0@300ms,slow=0@100ms-2sx3,drain=0@1s"`)
	migrate := flag.Bool("migrate", false, "enable mid-flight offload migration: on a server fault, checkpoint/ship/resume the task on a spare host instead of falling back locally")
	tiersMode := flag.String("tiers", "", "place offloads over the mobile -> edge -> cloud hierarchy: 3way, edge-only or cloud-only (empty keeps the classic binary gate)")
	bindStats := flag.Bool("bindstats", false, "print compilation-cache statistics (programs, hits, misses) after the run")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this path")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "offloadrun: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "offloadrun: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	if *bindStats {
		defer func() {
			s := core.DefaultCache.Stats()
			fmt.Printf("compilation cache: %d programs, %d hits, %d misses (hit rate %.0f%%)\n",
				s.Entries, s.Hits, s.Misses, 100*s.HitRate())
		}()
	}

	var plan *faults.Plan
	if *faultSpec != "" {
		p, err := faults.Parse(*faultSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "offloadrun: -faults: %v\n", err)
			os.Exit(1)
		}
		plan = p
	}
	var serverPlan *faults.ServerPlan
	if *serverFaultSpec != "" {
		p, err := faults.ParseServer(*serverFaultSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "offloadrun: -server-faults: %v\n", err)
			os.Exit(1)
		}
		serverPlan = p
	}
	o := newObservability(*traceFile, *profileFile, *breakdown, *showMetrics, *critPath, *exemplars)
	o.faults = plan
	o.serverFaults = serverPlan
	o.migrate = *migrate
	if *tiersMode != "" {
		mode, err := tiers.ParseMode(*tiersMode)
		if err != nil {
			fmt.Fprintf(os.Stderr, "offloadrun: -tiers: %v\n", err)
			os.Exit(1)
		}
		topo := tiers.Default(2, 1)
		topo.Mode = mode
		o.topo = topo
	}
	if *irFile != "" {
		runIRFile(*irFile, *stdin, *cost, *showOut, o)
		o.finish()
		return
	}
	if *name == "chess" {
		runChess(*depth, *turns, *showOut, o)
		o.finish()
		return
	}
	w := workloads.ByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "offloadrun: unknown workload %q\n", *name)
		os.Exit(1)
	}
	var r *experiments.ProgramResult
	var err error
	if o.sampleEvery > 0 {
		if plan != nil {
			fmt.Fprintln(os.Stderr, "offloadrun: -profile cannot be combined with -faults")
			os.Exit(1)
		}
		if o.topo != nil {
			fmt.Fprintln(os.Stderr, "offloadrun: -profile cannot be combined with -tiers")
			os.Exit(1)
		}
		r, err = experiments.RunProgramProfiled(w, o.tracer, o.metrics, o.sampleEvery)
	} else {
		r, err = experiments.RunProgramTiered(w, o.topo, plan, o.tracer, o.metrics)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "offloadrun: %v\n", err)
		os.Exit(1)
	}
	defer o.finish()
	defer o.reportRun(r.Fast, energy.FastModel())
	t := report.New(w.Name+" — "+w.Desc,
		"Run", "Time(s)", "Normalized", "Energy(mJ)", "Traffic(MB)", "Offloaded")
	t.Add("local (mobile only)", r.Local.Time.Seconds(), 1.0, r.Local.EnergyMJ, 0, "-")
	add := func(label string, off *core.OffloadResult, m energy.PowerModel) {
		mb := float64(off.LinkStats.TotalBytes()) * float64(workloads.Scale) / 1e6
		t.Add(label, off.Time.Seconds(), off.NormalizedTime(r.Local),
			off.Recorder.EnergyMJ(m), mb, fmt.Sprintf("%v", off.Offloaded()))
	}
	add("offload slow (802.11n)", r.Slow, energy.SlowModel())
	add("offload fast (802.11ac)", r.Fast, energy.FastModel())
	t.Note("speedup on fast network: %.2fx; coverage %.1f%%", r.Fast.Speedup(r.Local), 100*r.Coverage())
	fmt.Println(t)
	if plan != nil {
		fmt.Printf("faults (%s): %d injected; recovery: %d retries, %d aborts, %d local fallbacks; output identical to fault-free\n",
			plan.String(), r.Fast.FaultStats.Total(), r.Fast.Stats.Retries, r.Fast.Stats.Aborts, r.Fast.Stats.Fallbacks)
	}
	if serverPlan != nil {
		// Re-run the fast-network offload under the server-fault plan and
		// score it against the fault-free result above.
		var mig *offrt.Migration
		if *migrate {
			m := offrt.DefaultMigration()
			mig = &m
		}
		cell, err := experiments.RunServerChaosCell(r, serverPlan, mig, "cli")
		if err != nil {
			fmt.Fprintf(os.Stderr, "offloadrun: -server-faults: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("server faults (%s): %d migrations, %d crash retries, %d local fallbacks\n",
			cell.Plan, cell.Migrations, cell.CrashRetries, cell.Fallbacks)
		if !cell.Equal() {
			fmt.Fprintln(os.Stderr, "offloadrun: server-faulted run diverged from the fault-free run")
			os.Exit(1)
		}
		fmt.Println("server-faulted run identical to fault-free (output, exit code, memory digest)")
	}
	if *showOut {
		fmt.Println(r.Local.Output)
	}
}

func runChess(depth, turns int64, showOut bool, o *observability) {
	fw := core.NewFramework(core.FastNetwork)
	fw.CostScale = workloads.ChessCostScale
	o.attach(fw)
	mod := workloads.BuildChess(workloads.DefaultChessConfig())
	prof, err := fw.Profile(mod, workloads.ChessInput(depth-2, turns))
	if err != nil {
		fmt.Fprintln(os.Stderr, "offloadrun:", err)
		os.Exit(1)
	}
	cres, err := fw.Compile(mod, prof)
	if err != nil {
		fmt.Fprintln(os.Stderr, "offloadrun:", err)
		os.Exit(1)
	}
	local, err := fw.RunLocal(mod, workloads.ChessInput(depth, turns))
	if err != nil {
		fmt.Fprintln(os.Stderr, "offloadrun:", err)
		os.Exit(1)
	}
	off, err := fw.RunOffloaded(cres, workloads.ChessInput(depth, turns), offrt.Policy{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "offloadrun:", err)
		os.Exit(1)
	}
	fmt.Printf("chess depth %d, %d turns\n", depth, turns)
	fmt.Printf("  local:    %v  (%.0f mJ)\n", local.Time, local.EnergyMJ)
	fmt.Printf("  offload:  %v  (%.0f mJ)  speedup %.2fx, battery %.0f%% saved\n",
		off.Time, off.EnergyMJ, off.Speedup(local), 100*(1-off.NormalizedEnergy(local)))
	for id, st := range off.PerTask {
		fmt.Printf("  task %d: %d offloads, %d declines, %.1f KB traffic, %d faults\n",
			id, st.Offloads, st.Declines, float64(st.TrafficBytes)/1024, st.Faults)
	}
	o.reportRun(off, fw.Power)
	if showOut {
		fmt.Println(off.Output)
	}
}

// runIRFile profiles, compiles and executes a user-written IR program.
func runIRFile(path, stdin string, cost int64, showOut bool, o *observability) {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "offloadrun:", err)
		os.Exit(1)
	}
	mod, err := ir.Parse(string(data))
	if err != nil {
		fmt.Fprintln(os.Stderr, "offloadrun:", err)
		os.Exit(1)
	}
	mkIO := func() *interp.StdIO {
		io := interp.NewStdIO(nil)
		io.MaxBuffered = 1 << 20
		for _, tok := range strings.Split(stdin, ",") {
			if v, err := strconv.ParseInt(strings.TrimSpace(tok), 10, 64); err == nil {
				io.AddInput(v)
			}
		}
		return io
	}
	fw := core.NewFramework(core.FastNetwork)
	fw.CostScale = cost
	o.attach(fw)
	prof, err := fw.Profile(mod, mkIO())
	if err != nil {
		fmt.Fprintln(os.Stderr, "offloadrun: profile:", err)
		os.Exit(1)
	}
	cres, err := fw.Compile(mod, prof)
	if err != nil {
		fmt.Fprintln(os.Stderr, "offloadrun: compile:", err)
		os.Exit(1)
	}
	local, err := fw.RunLocal(mod, mkIO())
	if err != nil {
		fmt.Fprintln(os.Stderr, "offloadrun: local:", err)
		os.Exit(1)
	}
	off, err := fw.RunOffloaded(cres, mkIO(), offrt.Policy{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "offloadrun: offload:", err)
		os.Exit(1)
	}
	match := "identical"
	if off.Output != local.Output {
		match = "MISMATCH"
	}
	fmt.Printf("%s: local %v -> offloaded %v (%.2fx speedup, outputs %s)\n",
		mod.Name, local.Time, off.Time, off.Speedup(local), match)
	for id, st := range off.PerTask {
		fmt.Printf("  task %d: %d offloads, %.1f KB traffic\n", id, st.Offloads, float64(st.TrafficBytes)/1024)
	}
	o.reportRun(off, fw.Power)
	if showOut {
		fmt.Print(off.Output)
	}
}
