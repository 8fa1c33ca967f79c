package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/simtime"
)

// The fleet-scale benchmark: how fast the discrete-event engine chews
// through a production-sized client population, and whether adaptive
// admission earns its keep on a diurnal load curve.

// ScaleCell is one timed engine run.
type ScaleCell struct {
	Name         string  `json:"name"`
	Clients      int     `json:"clients"`
	Servers      int     `json:"servers"`
	Requests     int     `json:"requests_per_client"`
	Events       int64   `json:"events"`
	ElapsedSec   float64 `json:"elapsed_sec"`
	EventsPerSec float64 `json:"events_per_sec"`
	P99Ms        float64 `json:"p99_ms"`
	Sheds        int     `json:"sheds"`
}

// AdaptiveCell compares static against adaptive admission on one seed of
// the diurnal overload cell.
type AdaptiveCell struct {
	Seed           uint64  `json:"seed"`
	StaticSheds    int     `json:"static_sheds"`
	StaticMisses   int     `json:"static_deadline_misses"`
	StaticRPS      float64 `json:"static_rps"`
	AdaptiveSheds  int     `json:"adaptive_sheds"`
	AdaptiveMisses int     `json:"adaptive_deadline_misses"`
	AdaptiveRPS    float64 `json:"adaptive_rps"`
}

// ExemplarCell records the tail-sampled exemplar run: the 100k-client
// floor cell re-run with the sampler on and a bounded tracer ring
// attached, plus the structural facts CheckFloor enforces — the slowest-K
// jobs all retained, every retained exemplar assembling into a complete
// span tree whose critical-path segments sum exactly to its latency, and
// the whole flush staying inside the ring's existing memory bound.
type ExemplarCell struct {
	Exemplars     int   `json:"exemplars"`
	Clients       int   `json:"clients"`
	Retained      int   `json:"retained"`
	SlowRetained  int   `json:"slow_retained"`
	CompleteTrees int   `json:"complete_trees"`
	SumExact      int   `json:"sum_exact"`
	RingEvents    int   `json:"ring_events"`
	RingCap       int   `json:"ring_capacity"`
	TraceDropped  int64 `json:"trace_dropped"`
}

// ScaleBench is the machine-readable record make bench writes to
// BENCH_fleet_scale.json.
type ScaleBench struct {
	Cores      int `json:"cores"`
	GoMaxProcs int `json:"gomaxprocs"`

	// Floor is the 100k-client cell, pinned so its events/sec is
	// comparable across runs.
	Floor ScaleCell `json:"floor"`

	// Big is the headline run: a million clients over sixteen servers.
	Big ScaleCell `json:"big"`

	Adaptive []AdaptiveCell `json:"adaptive"`

	// Exemplar is the tail-sampling cell; nil (and absent from the JSON)
	// unless the sweep ran with exemplars > 0, so existing bench artifacts
	// stay byte-identical.
	Exemplar *ExemplarCell `json:"exemplar,omitempty"`
}

// scaleConfig is the shared workload of the timed cells: est-aware policy
// (the most expensive dispatcher — it prices every server per decision)
// over a 16-server heterogeneous pool.
func scaleConfig(clients, rpc int) fleet.Config {
	cfg := fleet.DefaultConfig(clients, 16, fleet.EstAware)
	cfg.RequestsPerClient = rpc
	return cfg
}

func timeCell(name string, cfg fleet.Config) (ScaleCell, error) {
	t0 := time.Now()
	res, err := fleet.Run(cfg)
	if err != nil {
		return ScaleCell{}, fmt.Errorf("%s: %w", name, err)
	}
	el := time.Since(t0).Seconds()
	return ScaleCell{
		Name:         name,
		Clients:      cfg.Clients,
		Servers:      len(cfg.Servers),
		Requests:     cfg.RequestsPerClient,
		Events:       res.Events,
		ElapsedSec:   el,
		EventsPerSec: float64(res.Events) / el,
		P99Ms:        res.P99Ms,
		Sheds:        res.Sheds,
	}, nil
}

// exemplarCell re-runs the floor workload with the tail sampler on and a
// default-capacity tracer ring attached, then scores the retained set:
// how many exemplars came back, how many carry the "slow" (slowest-K)
// category, how many assemble into complete span trees whose root
// duration matches the recorded latency, and on how many the
// critical-path segments sum exactly to the end-to-end latency.
func exemplarCell(clients, k int) (*ExemplarCell, error) {
	cfg := scaleConfig(clients, 10)
	cfg.Exemplars = k
	tr := obs.NewTracer(0)
	cfg.Tracer = tr
	res, err := fleet.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("exemplar cell: %w", err)
	}
	cell := &ExemplarCell{
		Exemplars: k, Clients: clients,
		Retained:   len(res.Exemplars),
		RingEvents: tr.Len(), RingCap: obs.DefaultCapacity,
		TraceDropped: res.TraceDropped,
	}
	trees := make(map[int64]*obs.JobTrace)
	for _, jt := range obs.AssembleSpans(tr.Events()) {
		trees[jt.Job] = jt
	}
	for _, ex := range res.Exemplars {
		for _, c := range ex.Categories {
			if c == "slow" {
				cell.SlowRetained++
				break
			}
		}
		var sum int64
		for _, s := range ex.Segments {
			sum += s.PS
		}
		if sum == ex.LatencyPS {
			cell.SumExact++
		}
		if jt := trees[ex.Job]; jt != nil && jt.Complete && int64(jt.Roots[0].Dur) == ex.LatencyPS {
			cell.CompleteTrees++
		}
	}
	return cell, nil
}

// ScaleSweep runs the full fleet-scale benchmark. clients sizes the
// headline cell (the floor cell is pinned at 100k); exemplars > 0 adds the
// tail-sampling cell retaining that many jobs per category.
func ScaleSweep(clients, exemplars int) (*ScaleBench, error) {
	b := &ScaleBench{Cores: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0)}

	var err error
	if b.Floor, err = timeCell("floor", scaleConfig(100_000, 10)); err != nil {
		return nil, err
	}

	if exemplars > 0 {
		if b.Exemplar, err = exemplarCell(100_000, exemplars); err != nil {
			return nil, err
		}
	}

	rpc := 3 // a million clients need fewer requests each to stay in budget
	if clients < 1 {
		clients = 1_000_000
	}
	if b.Big, err = timeCell("big", scaleConfig(clients, rpc)); err != nil {
		return nil, err
	}

	for seed := uint64(1); seed <= 3; seed++ {
		run := func(adaptive bool) (*fleet.Result, error) {
			cfg := fleet.DefaultConfig(256, 4, fleet.EstAware)
			cfg.Seed = seed
			cfg.RequestsPerClient = 20
			cfg.Workload.DiurnalAmp = 0.8
			cfg.Workload.DiurnalPeriod = 4 * simtime.Second
			if adaptive {
				cfg.Adaptive = fleet.DefaultAdaptive()
			}
			return fleet.Run(cfg)
		}
		st, err := run(false)
		if err != nil {
			return nil, fmt.Errorf("adaptive cell seed=%d static: %w", seed, err)
		}
		ad, err := run(true)
		if err != nil {
			return nil, fmt.Errorf("adaptive cell seed=%d adaptive: %w", seed, err)
		}
		b.Adaptive = append(b.Adaptive, AdaptiveCell{
			Seed:           seed,
			StaticSheds:    st.Sheds,
			StaticMisses:   st.DeadlineMisses,
			StaticRPS:      st.ThroughputRPS,
			AdaptiveSheds:  ad.Sheds,
			AdaptiveMisses: ad.DeadlineMisses,
			AdaptiveRPS:    ad.ThroughputRPS,
		})
	}
	return b, nil
}

// CheckFloor enforces the benchmark's acceptance bar: adaptive admission
// must strictly reduce sheds + deadline misses on every diurnal seed
// without losing 5% of throughput, and the exemplar cell (when run) must
// retain the slowest jobs as complete span trees with exact segment sums
// inside the trace-ring bound.
func (b *ScaleBench) CheckFloor() error {
	for _, c := range b.Adaptive {
		static, adaptive := c.StaticSheds+c.StaticMisses, c.AdaptiveSheds+c.AdaptiveMisses
		if static == 0 {
			return fmt.Errorf("fleetscale: seed %d felt no static pressure; the adaptive cell is vacuous", c.Seed)
		}
		if adaptive >= static {
			return fmt.Errorf("fleetscale: seed %d adaptive pain %d (sheds+misses) not below static %d",
				c.Seed, adaptive, static)
		}
		if c.AdaptiveRPS < 0.95*c.StaticRPS {
			return fmt.Errorf("fleetscale: seed %d adaptive throughput %.1f rps gave up >5%% vs static %.1f",
				c.Seed, c.AdaptiveRPS, c.StaticRPS)
		}
	}
	if c := b.Exemplar; c != nil {
		if c.SlowRetained != c.Exemplars {
			return fmt.Errorf("fleetscale: exemplar cell retained %d slowest jobs, want all %d",
				c.SlowRetained, c.Exemplars)
		}
		if c.CompleteTrees != c.Retained {
			return fmt.Errorf("fleetscale: only %d of %d retained exemplars assembled complete span trees",
				c.CompleteTrees, c.Retained)
		}
		if c.SumExact != c.Retained {
			return fmt.Errorf("fleetscale: critical-path sum identity failed on %d of %d exemplars",
				c.Retained-c.SumExact, c.Retained)
		}
		if c.RingEvents > c.RingCap {
			return fmt.Errorf("fleetscale: exemplar flush overflowed the trace ring (%d events > cap %d)",
				c.RingEvents, c.RingCap)
		}
	}
	return nil
}

// ScaleTable renders the benchmark for the terminal.
func ScaleTable(b *ScaleBench) *report.Table {
	t := report.New(fmt.Sprintf("Fleet scale: engine throughput on %d core(s)", b.Cores),
		"cell", "clients", "servers", "events", "elapsed (s)", "events/sec")
	for _, c := range []ScaleCell{b.Floor, b.Big} {
		t.Add(c.Name, c.Clients, c.Servers, c.Events, c.ElapsedSec, c.EventsPerSec)
	}
	for _, c := range b.Adaptive {
		t.Note(fmt.Sprintf("diurnal seed %d: static sheds+misses %d -> adaptive %d (rps %.1f -> %.1f)",
			c.Seed, c.StaticSheds+c.StaticMisses, c.AdaptiveSheds+c.AdaptiveMisses, c.StaticRPS, c.AdaptiveRPS))
	}
	if c := b.Exemplar; c != nil {
		t.Note(fmt.Sprintf("exemplars: %d retained over %d clients (%d/%d slowest, %d complete trees, %d exact sums) in %d/%d ring events",
			c.Retained, c.Clients, c.SlowRetained, c.Exemplars, c.CompleteTrees, c.SumExact, c.RingEvents, c.RingCap))
	}
	return t
}

// WriteFleetScaleBench writes the record to path (BENCH_fleet_scale.json
// under make bench).
func WriteFleetScaleBench(path string, b *ScaleBench) error {
	out, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
