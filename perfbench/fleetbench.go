package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"

	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/tiers"
)

// configs maps each fleet workload to its config.
var configs = map[string]func(seed uint64) fleet.Config{
	"fleet-wide":   wideConfig,
	"fleet-tiered": tieredConfig,
}

// wideConfig is the fleet-wide workload: 8000 clients over a 1024-server
// pool, where each est-aware dispatch decision scans the whole pool.
func wideConfig(seed uint64) fleet.Config {
	cfg := fleet.DefaultConfig(8000, 1024, fleet.EstAware)
	cfg.Seed = seed
	cfg.Shards = runtime.NumCPU()
	return cfg
}

// tieredRequests is the fleet-tiered workload's requests per client.
const tieredRequests = 15000

// tieredConfig is the fleet-tiered workload: 96 clients over 4 edge
// servers and 1 cloud server in 3-way placement, with the TierSweep
// task and diurnal shape, one drain and one crash, and the tail sampler
// feeding a bounded tracer. Dispatch scans at most 5 servers here, so the
// event heap, the final sort, the shard barrier, tier moves and tracer
// emission carry the run.
func tieredConfig(seed uint64) fleet.Config {
	cfg := fleet.TieredConfig(96, tiers.Default(4, 1))
	cfg.Seed = seed
	cfg.RequestsPerClient = tieredRequests
	cfg.Workload.TmMin = 200 * simtime.Millisecond
	cfg.Workload.TmMax = 1 * simtime.Second
	cfg.Workload.MemMin = 64 << 10
	cfg.Workload.MemMax = 512 << 10
	cfg.Workload.DiurnalAmp = 0.6
	cfg.Workload.DiurnalPeriod = 10 * simtime.Second
	// Both faults hit busy edge servers. The drain comes at a diurnal
	// trough, where migrating the running jobs beats re-running them
	// locally (at a peak, a loaded pool can make every victim fall back);
	// the crash comes at the next peak and forces retries.
	cfg.ServerFaults = &faults.ServerPlan{Seed: seed, Events: []faults.ServerEvent{
		{Kind: faults.Drain, Server: 1, Start: 17500 * simtime.Millisecond},
		{Kind: faults.Crash, Server: 2, Start: 22500 * simtime.Millisecond},
	}}
	cfg.Exemplars = 64
	cfg.Tracer = obs.NewTracer(obs.DefaultCapacity)
	cfg.Shards = runtime.NumCPU()
	return cfg
}

// withoutObs is cfg with the tracer and the tail sampler off.
func withoutObs(cfg fleet.Config) fleet.Config {
	cfg.Tracer, cfg.Exemplars = nil, 0
	return cfg
}

// fleetRun is one fleet.Run a unit kept for verify.
type fleetRun struct {
	res   *fleet.Result
	err   error
	noObs bool
}

// fleetBench is a fleet workload: one unit is one fleet.Run.
type fleetBench struct {
	name   string
	config func(seed uint64) fleet.Config
	seed   uint64
	ref    *reference
	next   fleet.Config
	runs   []fleetRun
}

func newFleetBench(name string, config func(uint64) fleet.Config, seed uint64, ref *reference) *fleetBench {
	return &fleetBench{name: name, config: config, seed: seed, ref: ref}
}

func (f *fleetBench) shards() int { return f.config(f.seed).Shards }

// setup builds and validates the run's config (for the sharded engine,
// validation builds the client population).
func (f *fleetBench) setup() error {
	cfg := f.config(f.seed)
	if err := cfg.Validate(); err != nil {
		return err
	}
	f.next = cfg
	return nil
}

// prepare builds the next unit's config, with a fresh tracer.
func (f *fleetBench) prepare() { f.next = f.config(f.seed) }

func (f *fleetBench) unit() {
	res, err := fleet.Run(f.next)
	f.runs = append(f.runs, fleetRun{res: res, err: err})
}

// hasTracer reports whether the workload's config carries a tracer, so
// obs.tracing_s has something to measure.
func (f *fleetBench) hasTracer() bool { return f.next.Tracer != nil }

// unitNoObs is unit with the tracer and tail sampler off.
func (f *fleetBench) unitNoObs() {
	res, err := fleet.Run(withoutObs(f.next))
	f.runs = append(f.runs, fleetRun{res: res, err: err, noObs: true})
}

// traced runs one unit under a CPU profile, which splits fleet.Run's
// host time into the fleet.cpu.* buckets.
func (f *fleetBench) traced(log *spanLog) map[string]float64 {
	from := len(log.spans)
	root := log.begin("fleet.unit", -1)
	var prof bytes.Buffer
	profErr := pprof.StartCPUProfile(&prof)
	before := readMem()
	var res *fleet.Result
	var err error
	log.do("fleet.run", root, func() { res, err = fleet.Run(f.next) })
	after := readMem()
	if profErr == nil {
		pprof.StopCPUProfile()
	}
	log.finish(root)
	f.runs = append(f.runs, fleetRun{res: res, err: err})
	if err != nil {
		return nil
	}
	shares, perr := cpuShares(prof.Bytes())
	if profErr != nil || perr != nil {
		f.runs = append(f.runs, fleetRun{err: fmt.Errorf("cpu profile: %v %v", profErr, perr)})
	}
	self := selfByName(log.spans, from)
	events := float64(res.Events)
	out := map[string]float64{
		"fleet.events":            events,
		"fleet.events_per_s":      ratio(events, self["fleet.run"].Seconds()),
		"fleet.mallocs_per_event": ratio(float64(after.Mallocs-before.Mallocs), events),
		"fleet.offload_ratio":     ratio(float64(res.Offloads), float64(res.Requests)),
		"fleet.shed_ratio":        ratio(float64(res.Sheds), float64(res.Dispatched)),
		"tiers.promotions":        float64(res.Promotions),
		"tiers.demotions":         float64(res.Demotions),
		"fleet.migrations":        float64(res.Migrations),
		"fleet.retried":           float64(res.Retried),
		"obs.trace_dropped":       float64(res.TraceDropped),
		"obs.exemplars":           float64(len(res.Exemplars)),
		"bench.unattributed_s":    self["fleet.unit"].Seconds(),
	}
	for k, v := range shares {
		out[k] = v
	}
	return out
}

// valid checks the workload's validity conditions: the mechanisms the
// workload exists to exercise must actually have run.
func (f *fleetBench) valid(res *fleet.Result) error {
	if res.Requests == 0 {
		return fmt.Errorf("no requests completed")
	}
	switch f.name {
	case "fleet-wide":
		if res.Offloads == 0 || res.Declines == 0 {
			return fmt.Errorf("want offloads and declines > 0, got %d and %d", res.Offloads, res.Declines)
		}
	case "fleet-tiered":
		if res.Promotions == 0 || res.Demotions == 0 || res.Migrations == 0 || res.Retried == 0 {
			return fmt.Errorf("want promotions, demotions, migrations and retries > 0, got %d, %d, %d, %d",
				res.Promotions, res.Demotions, res.Migrations, res.Retried)
		}
	}
	return nil
}

// resultDigest hashes a Result's JSON; noObs drops the fields only the
// tracer and tail sampler fill, which tracing must not otherwise change.
func resultDigest(res *fleet.Result, noObs bool) (string, error) {
	r := *res
	if noObs {
		r.TraceDropped, r.Exemplars = 0, nil
	}
	b, err := json.Marshal(&r)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// expected returns the reference digest for the run's seed: the stored
// one, or else the sequential engine's (Shards: 0), computed here outside
// any timed region.
func (f *fleetBench) expected() (string, error) {
	if d, ok := f.ref.Fleet[f.name][strconv.FormatUint(f.seed, 10)]; ok {
		return d, nil
	}
	cfg := f.config(f.seed)
	cfg.Shards = 0
	res, err := fleet.Run(cfg)
	if err != nil {
		return "", fmt.Errorf("sequential reference: %w", err)
	}
	return resultDigest(res, false)
}

// verify checks every run: no error, the validity conditions, a digest
// equal to the reference, and for runs with tracing off a result equal
// to the traced result apart from the tracing fields.
func (f *fleetBench) verify(t *tally) {
	want, err := f.expected()
	if err != nil {
		t.op(f.name+" reference", err)
		return
	}
	var traced string
	for _, r := range f.runs {
		if r.noObs {
			continue
		}
		if r.err == nil {
			traced, _ = resultDigest(r.res, true)
			break
		}
	}
	for i, r := range f.runs {
		what := fmt.Sprintf("%s run %d", f.name, i)
		switch {
		case r.err != nil:
			t.op(what, r.err)
		case r.noObs:
			d, err := resultDigest(r.res, true)
			if err == nil && d != traced {
				err = fmt.Errorf("result with tracing off differs from the traced result")
			}
			t.op(what+" (tracing off)", firstErr(err, f.valid(r.res)))
		default:
			d, err := resultDigest(r.res, false)
			if err == nil && d != want {
				err = fmt.Errorf("result digest %s, reference %s", d[:16], want[:16])
			}
			t.op(what, firstErr(err, f.valid(r.res)))
		}
	}
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
