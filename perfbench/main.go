// Command perfbench is the repository's benchmark. It times the offload
// pipeline and the fleet simulator from outside, through each layer's
// public functions, checks every simulated output against a stored
// reference, and prints one JSON result line:
//
//	perfbench --workload pipeline|fleet-wide|fleet-tiered --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics (host CPU time
// and allocation per unit, peak RSS, set-up time). With --trace 1 a separate traced run
// gives the per-layer metrics. NOTES.md records why each workload exists
// and what each metric is expected to move. --update-reference rewrites
// reference.json from the current sources.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit; the two lists below
// are the same metrics BENCHMARK.json declares, in its order.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"cpu_s", "s"},
	{"alloc_mb", "MiB"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"workloads.build_s", "s"},
	{"ir.lower_s", "s"},
	{"interp.compile_s", "s"},
	{"interp.cache_hit_ratio", "ratio"},
	{"interp.bind_s", "s"},
	{"profile.run_s", "s"},
	{"profile.alloc_mb", "MiB"},
	{"profile.steps", "count"},
	{"compiler.compile_s", "s"},
	{"compiler.targets", "count"},
	{"interp.local_s", "s"},
	{"interp.local_steps_per_s", "1/s"},
	{"offrt.fast_s", "s"},
	{"offrt.slow_s", "s"},
	{"offrt.steps_per_s", "1/s"},
	{"offrt.alloc_mb", "MiB"},
	{"offrt.offloads", "count"},
	{"offrt.declines", "count"},
	{"offrt.page_faults", "count"},
	{"offrt.dirty_pages", "count"},
	{"netsim.bytes", "bytes"},
	{"fleet.events", "count"},
	{"fleet.events_per_s", "1/s"},
	{"fleet.mallocs_per_event", "count"},
	{"fleet.cpu.dispatch", "share"},
	{"fleet.cpu.heap", "share"},
	{"fleet.cpu.finish", "share"},
	{"fleet.cpu.sync", "share"},
	{"fleet.cpu.gc", "share"},
	{"fleet.offload_ratio", "ratio"},
	{"fleet.shed_ratio", "ratio"},
	{"tiers.promotions", "count"},
	{"tiers.demotions", "count"},
	{"fleet.migrations", "count"},
	{"fleet.retried", "count"},
	{"obs.tracing_s", "s"},
	{"obs.trace_dropped", "count"},
	{"obs.exemplars", "count"},
	{"bench.trace_overhead_x", "x"},
	{"bench.unattributed_s", "s"},
}

// workload is one benchmark workload. A unit is the piece of work cpu_s
// times; its outputs are kept and checked by verify after the timed
// region ends.
type workload interface {
	// setup builds the modules and configs a unit needs; setup_s times it.
	setup() error
	// prepare readies the next unit; it is not timed.
	prepare()
	// unit runs one unit of work untraced.
	unit()
	// traced runs one unit under the span log and returns the per-layer
	// values it measured.
	traced(log *spanLog) map[string]float64
	// verify checks every kept output and counts each operation into t.
	verify(t *tally)
	// shards is the fleet shard count the workload runs with.
	shards() int
}

// tally counts operations and failed operations. A failure is reported
// on standard error with its reason.
type tally struct{ attempted, failed int }

func (t *tally) op(what string, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAILED %s: %v\n", what, err)
	}
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// A run times its set-up in batches of builds that together take at
// least setupBatch of CPU time: setupBatches batches before the first
// unit and as many after each unit. setup_s is the median per-build time
// over all batches. A fleet build alone takes a fraction of a
// millisecond, too short for one clock reading to time steadily, and
// batches spread over the whole run see the same host speed the units do.
const (
	setupBatches = 3
	setupBatch   = 20 * time.Millisecond
)

func main() {
	name := flag.String("workload", "", "pipeline, fleet-wide or fleet-tiered")
	seed := flag.Uint64("seed", 1, "workload seed (the pipeline's inputs are fixed and ignore it)")
	seconds := flag.Float64("seconds", 20, "how long the timed region runs")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics; 1 runs the traced pass and reports per-layer metrics")
	update := flag.Bool("update-reference", false, "rewrite perfbench/reference.json from the current sources and exit")
	flag.Parse()

	if *update {
		if err := updateReference(referencePath); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		os.Exit(2)
	}
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func newWorkload(name string, seed uint64, ref *reference) (workload, error) {
	if name == "pipeline" {
		return newPipeline(ref), nil
	}
	if config, ok := configs[name]; ok {
		return newFleetBench(name, config, seed, ref), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want pipeline, fleet-wide or fleet-tiered)", name)
}

func run(name string, seed uint64, seconds float64, trace bool) error {
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %g", seconds)
	}
	ref, err := loadReference()
	if err != nil {
		return err
	}
	w, err := newWorkload(name, seed, ref)
	if err != nil {
		return err
	}
	env := stampEnv(name, seed, trace, w.shards())
	out := map[string]float64{}
	var samples []sample
	var spans *spanLog
	if trace {
		samples, spans, err = measureTraced(w, seconds, out)
	} else {
		samples, err = measure(w, seconds, out)
	}
	var t tally
	if err != nil {
		t.op("setup", err)
	}
	w.verify(&t)

	defs := endToEnd
	if trace {
		defs = perLayer
	}
	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]valueUnit{}}
	for _, d := range defs {
		res.Metrics[d.name] = valueUnit{Value: out[d.name], Unit: d.unit}
	}
	if err := writeRecord(env, res, samples, spans); err != nil {
		return err
	}
	printSummary(env, res, defs)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// sample is one timed unit: its wall time, the process's CPU time (user
// plus system, every thread), the bytes it allocated and its peak RSS.
type sample struct {
	Phase   string  `json:"phase"`
	WallS   float64 `json:"wall_s"`
	CPUS    float64 `json:"cpu_s"`
	AllocMB float64 `json:"alloc_mb"`
	PeakMB  float64 `json:"peak_rss_mb"`
}

func cpuOf(s sample) float64   { return s.CPUS }
func allocOf(s sample) float64 { return s.AllocMB }
func peakOf(s sample) float64  { return s.PeakMB }

// medianOf returns the median of f over the samples.
func medianOf(ss []sample, f func(sample) float64) float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	return median(xs)
}

// timeUnits runs unit until budget of wall time is spent and at least
// least units ran. Each unit follows an untimed prepare, a forced GC that
// also returns freed memory to the OS, and a reset of the peak-RSS mark,
// so every unit starts from the same heap and its peak is its own. between,
// when not nil, runs after each unit, outside its timing and budget.
func timeUnits(w workload, phase string, budget time.Duration, least int, unit, between func()) []sample {
	var out []sample
	for spent := time.Duration(0); spent < budget || len(out) < least; {
		w.prepare()
		debug.FreeOSMemory()
		resetPeakRSS()
		before := readMem()
		c0, t0 := cpuTime(), time.Now()
		unit()
		wall, cpu := time.Since(t0), cpuTime()-c0
		after := readMem()
		spent += wall
		out = append(out, sample{phase, wall.Seconds(), cpu.Seconds(),
			mib(after.TotalAlloc - before.TotalAlloc), peakRSSMiB()})
		if between != nil {
			between()
		}
	}
	return out
}

// measure is the untraced run: set up, run one untimed warm-up unit,
// then time units until the budget is spent (at least 3), timing more
// set-up builds after each unit. Each reported value is the median over
// the timed units, and setup_s the median over the set-up batches.
func measure(w workload, seconds float64, out map[string]float64) ([]sample, error) {
	setups := setupClock{w: w}
	setups.batches()
	if setups.err != nil {
		return nil, setups.err
	}
	ss := timeUnits(w, "warm-up", 0, 1, w.unit, setups.batches)
	timed := timeUnits(w, "timed", time.Duration(seconds*float64(time.Second)), 3, w.unit, setups.batches)
	if setups.err != nil {
		return nil, setups.err
	}
	out["cpu_s"] = medianOf(timed, cpuOf)
	out["alloc_mb"] = medianOf(timed, allocOf)
	out["peak_rss_mb"] = medianOf(timed, peakOf)
	out["setup_s"] = median(setups.perBuild)
	return append(ss, timed...), nil
}

// setupClock times batches of set-up builds. It stops at the first
// build that fails and keeps its error.
type setupClock struct {
	w        workload
	perBuild []float64 // seconds per build, one value per batch
	err      error
}

// batches times setupBatches batches. Each batch starts from a collected
// heap with its free pages returned to the OS, and with the collector
// off, so every build pays the page faults a fresh process would and no
// collection lands in a batch. The goroutine stays on one OS thread and
// only that thread's CPU time counts, so background runtime threads add
// nothing to it.
func (c *setupClock) batches() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i := 0; i < setupBatches && c.err == nil; i++ {
		debug.FreeOSMemory()
		gc := debug.SetGCPercent(-1)
		n, c0 := 0, threadCPUTime()
		var spent time.Duration
		for spent < setupBatch && c.err == nil {
			c.err = c.w.setup()
			n++
			spent = threadCPUTime() - c0
		}
		debug.SetGCPercent(gc)
		c.perBuild = append(c.perBuild, spent.Seconds()/float64(n))
	}
}

// obsWorkload is a workload whose config may carry an obs tracer and can
// run the same unit with tracing off, the base of obs.tracing_s.
type obsWorkload interface {
	hasTracer() bool
	unitNoObs()
}

// measureTraced is the traced run. After an untimed warm-up unit, part
// of the budget times untraced units (the base of bench.trace_overhead_x) and, where the config
// carries a tracer, units with tracing off (the base of obs.tracing_s);
// the rest runs traced units, whose per-layer values are reported as
// medians.
func measureTraced(w workload, seconds float64, out map[string]float64) ([]sample, *spanLog, error) {
	if err := w.setup(); err != nil {
		return nil, nil, err
	}
	ow, hasObs := w.(obsWorkload)
	hasObs = hasObs && ow.hasTracer()
	parts := 2
	if hasObs {
		parts = 3
	}
	share := time.Duration(seconds * float64(time.Second) / float64(parts))
	ss := timeUnits(w, "warm-up", 0, 1, w.unit, nil)
	plain := timeUnits(w, "untraced", share, 1, w.unit, nil)
	ss = append(ss, plain...)
	if hasObs {
		noObs := timeUnits(w, "no-obs", share, 1, ow.unitNoObs, nil)
		out["obs.tracing_s"] = medianOf(plain, cpuOf) - medianOf(noObs, cpuOf)
		ss = append(ss, noObs...)
	}
	log := newSpanLog()
	var vals []map[string]float64
	traced := timeUnits(w, "traced", share, 1, func() { vals = append(vals, w.traced(log)) }, nil)
	per := map[string][]float64{}
	for _, v := range vals {
		for k, x := range v {
			per[k] = append(per[k], x)
		}
	}
	for k, xs := range per {
		out[k] = median(xs)
	}
	out["bench.trace_overhead_x"] = ratio(medianOf(traced, cpuOf), medianOf(plain, cpuOf))
	return append(ss, traced...), log, nil
}

// env is the environment stamp written with every record.
type env struct {
	Workload    string `json:"workload"`
	Seed        uint64 `json:"seed"`
	Trace       bool   `json:"trace"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	GoVersion   string `json:"go_version"`
	Commit      string `json:"commit"`
	FleetShards int    `json:"fleet_shards"`
}

func stampEnv(name string, seed uint64, trace bool, shards int) env {
	return env{
		Workload: name, Seed: seed, Trace: trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), Commit: commit(), FleetShards: shards,
	}
}

// recordDir is where each run's full record (environment, metrics and,
// for a traced run, every span) is written, under the build directory.
const recordDir = ".bench_build/records"

func writeRecord(e env, res result, samples []sample, spans *spanLog) error {
	rec := struct {
		Env     env        `json:"env"`
		Result  result     `json:"result"`
		Samples []sample   `json:"samples"`
		Spans   []spanJSON `json:"spans,omitempty"`
	}{e, res, samples, spans.export()}
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(recordDir, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if e.Trace {
		mode = "trace"
	}
	path := filepath.Join(recordDir, fmt.Sprintf("%s-seed%d-%s.json", e.Workload, e.Seed, mode))
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write record: %w", err)
	}
	return nil
}

// printSummary prints the environment stamp and every metric by name
// with its unit, then the failed-operation share.
func printSummary(e env, res result, defs []metricDef) {
	b, _ := json.Marshal(map[string]env{"env": e}) // env holds only plain fields
	fmt.Println(string(b))
	for _, d := range defs {
		fmt.Printf("%-28s %16.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	share := float64(res.Failed) / float64(max(res.Attempted, 1))
	fmt.Printf("%-28s %16.6g (%d of %d operations)\n", "failed_share", share, res.Failed, res.Attempted)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a / b, or 0 when b is 0, so a layer that did no work reports
// 0 rather than a NaN the JSON result cannot carry.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mib(b uint64) float64 { return float64(b) / (1 << 20) }

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}
