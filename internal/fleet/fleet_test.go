package fleet

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/simtime"
)

// TestRunDeterministic: same Config (including Seed) must produce an
// identical Result — down to the JSON bytes the bench artifact is built
// from. Determinism is an acceptance criterion, not a nicety.
func TestRunDeterministic(t *testing.T) {
	for _, pol := range Policies() {
		cfg := DefaultConfig(16, 4, pol)
		cfg.Seed = 42
		a, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		b, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: two runs with the same seed diverged:\n%+v\n%+v", pol, a, b)
		}
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if string(ja) != string(jb) {
			t.Fatalf("%s: JSON not byte-identical:\n%s\n%s", pol, ja, jb)
		}
	}
}

// TestAccountingInvariant: every issued request completes exactly once —
// remotely, via a gate decline, or via an admission shed.
func TestAccountingInvariant(t *testing.T) {
	for _, pol := range Policies() {
		for _, n := range []int{1, 8, 64} {
			cfg := DefaultConfig(n, 4, pol)
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s n=%d: %v", pol, n, err)
			}
			if res.Requests != n*cfg.RequestsPerClient {
				t.Errorf("%s n=%d: issued %d requests, want %d", pol, n, res.Requests, n*cfg.RequestsPerClient)
			}
			if got := res.Offloads + res.Declines + res.Sheds; got != res.Requests {
				t.Errorf("%s n=%d: %d completions of %d requests", pol, n, got, res.Requests)
			}
			if res.Dispatched != res.Offloads+res.Sheds {
				t.Errorf("%s n=%d: dispatched %d != offloads %d + sheds %d",
					pol, n, res.Dispatched, res.Offloads, res.Sheds)
			}
		}
	}
}

// TestEstAwareNeverWorseThanRandom is the satellite property: on the same
// seed and workload, contention-aware dispatch must not lose to random on
// geomean end-to-end latency. Probed headroom: worst ratio 0.93 over 20
// seeds at 16/32/64 clients.
func TestEstAwareNeverWorseThanRandom(t *testing.T) {
	for _, n := range []int{16, 32, 64} {
		for seed := uint64(1); seed <= 10; seed++ {
			run := func(pol Policy) *Result {
				cfg := DefaultConfig(n, 4, pol)
				cfg.Seed = seed
				r, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s n=%d seed=%d: %v", pol, n, seed, err)
				}
				return r
			}
			est, rnd := run(EstAware), run(Random)
			if est.GeomeanMs > rnd.GeomeanMs {
				t.Errorf("n=%d seed=%d: est-aware geomean %.1f ms > random %.1f ms",
					n, seed, est.GeomeanMs, rnd.GeomeanMs)
			}
		}
	}
}

// TestOverloadShedsAndTails pins the acceptance cell: at 64 clients over 4
// servers, the load-blind policies overrun the admission bounds (nonzero
// sheds) while est-aware's contention-aware gate self-throttles (declines
// instead of sheds) and wins the tail.
func TestOverloadShedsAndTails(t *testing.T) {
	run := func(pol Policy) *Result {
		res, err := Run(DefaultConfig(64, 4, pol))
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		return res
	}
	est, rnd := run(EstAware), run(Random)
	if rnd.Sheds == 0 {
		t.Errorf("random under 64/4 overload shed nothing; admission control never engaged")
	}
	if rnd.MaxQueueDepth == 0 {
		t.Errorf("random under overload never queued")
	}
	if est.Sheds != 0 {
		t.Errorf("est-aware shed %d requests; its gate should decline before admission has to", est.Sheds)
	}
	if est.Declines == 0 {
		t.Errorf("est-aware under overload never declined; contention gate is dead")
	}
	if est.P99Ms >= rnd.P99Ms {
		t.Errorf("est-aware p99 %.1f ms >= random %.1f ms", est.P99Ms, rnd.P99Ms)
	}
	if est.ThroughputRPS <= rnd.ThroughputRPS {
		t.Errorf("est-aware throughput %.1f rps <= random %.1f", est.ThroughputRPS, rnd.ThroughputRPS)
	}
}

// TestSJFReducesQueueWait: shortest-job-first must not increase the
// average queueing delay relative to FIFO on the same arrival sequence.
func TestSJFReducesQueueWait(t *testing.T) {
	for seed := uint64(5); seed <= 9; seed++ {
		run := func(d Discipline) *Result {
			cfg := DefaultConfig(64, 4, Random)
			cfg.Seed = seed
			cfg.Queue = d
			r, err := Run(cfg)
			if err != nil {
				t.Fatalf("%v seed=%d: %v", d, seed, err)
			}
			return r
		}
		fifo, sjf := run(FIFO), run(SJF)
		if sjf.AvgQueueWaitMs > fifo.AvgQueueWaitMs {
			t.Errorf("seed=%d: SJF avg wait %.1f ms > FIFO %.1f ms", seed, sjf.AvgQueueWaitMs, fifo.AvgQueueWaitMs)
		}
	}
}

// TestTraceAndMetricsEmission: an overloaded run must leave dispatch,
// queue and shed events on the fleet track and publish the end-of-run
// gauges.
func TestTraceAndMetricsEmission(t *testing.T) {
	tr := obs.NewTracer(1 << 16)
	ms := obs.NewMetrics()
	cfg := DefaultConfig(64, 4, Random)
	cfg.Tracer = tr
	cfg.Metrics = ms
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[obs.Kind]int{}
	for _, ev := range tr.Events() {
		if ev.Track != obs.TrackFleet {
			t.Fatalf("fleet emitted on track %v: %+v", ev.Track, ev)
		}
		counts[ev.Kind]++
	}
	if counts[obs.KDispatch] != res.Dispatched {
		t.Errorf("saw %d fleet.dispatch events, want %d", counts[obs.KDispatch], res.Dispatched)
	}
	if counts[obs.KShed] != res.Sheds {
		t.Errorf("saw %d fleet.shed events, want %d", counts[obs.KShed], res.Sheds)
	}
	if counts[obs.KShed] == 0 || counts[obs.KQueue] == 0 {
		t.Errorf("overloaded run emitted no shed/queue events: %v", counts)
	}
	if got := ms.Value("fleet.requests"); got != int64(res.Requests) {
		t.Errorf("fleet.requests gauge = %d, want %d", got, res.Requests)
	}
	if got := ms.Value("fleet.sheds"); got != int64(res.Sheds) {
		t.Errorf("fleet.sheds gauge = %d, want %d", got, res.Sheds)
	}
	if ms.Value("fleet.queue_depth.max") == 0 {
		t.Errorf("fleet.queue_depth.max gauge is zero under overload")
	}
	if ms.Value("fleet.server.0.served") == 0 {
		t.Errorf("server 0 served nothing")
	}
}

// TestServerUtilBounds: utilization is a percentage of slot-time.
func TestServerUtilBounds(t *testing.T) {
	res, err := Run(DefaultConfig(32, 4, LeastLoaded))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ServerUtilPct) != 4 {
		t.Fatalf("got %d utilization entries, want 4", len(res.ServerUtilPct))
	}
	for i, u := range res.ServerUtilPct {
		if u < 0 || u > 100 {
			t.Errorf("server %d utilization %.2f%% out of [0,100]", i, u)
		}
	}
}

// TestConfigValidation rejects the configurations Run cannot execute.
func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Clients = 0 },
		func(c *Config) { c.RequestsPerClient = 0 },
		func(c *Config) { c.Servers = nil },
		func(c *Config) { c.Servers[0].R = 0 },
		func(c *Config) { c.Servers[0].Slots = 0 },
		func(c *Config) { c.Policy = "fastest" },
		func(c *Config) { c.Workload.TmMin = 0 },
		func(c *Config) { c.Workload.MemMax = c.Workload.MemMin - 1 },
		func(c *Config) { c.LinkProfiles = []string{"carrier-pigeon"} },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig(4, 2, Random)
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
}

// TestParsePolicy round-trips every policy name and rejects unknowns.
func TestParsePolicy(t *testing.T) {
	for _, p := range Policies() {
		got, err := ParsePolicy(string(p))
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p, got, err)
		}
	}
	if _, err := ParsePolicy("fastest"); err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Errorf("ParsePolicy accepted an unknown name: %v", err)
	}
}

// TestPercentile pins the nearest-rank convention.
func TestPercentile(t *testing.T) {
	lat := []simtime.PS{10, 20, 30, 40}
	if got := percentile(lat, 0.50); got != 20 {
		t.Errorf("p50 = %v, want 20", got)
	}
	if got := percentile(lat, 0.99); got != 40 {
		t.Errorf("p99 = %v, want 40", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
}

// TestPoolLoadSignal exercises the offrt binding: an idle pool reports no
// queueing delay; a fully occupied one reports the earliest slot-free
// horizon; stacked reservations extend it.
func TestPoolLoadSignal(t *testing.T) {
	p := NewPool(ServerSpec{R: 6, Slots: 2}, ServerSpec{R: 3, Slots: 1})
	if d := p.EstQueueDelay(0, simtime.Second); d != 0 {
		t.Fatalf("idle pool delay = %v, want 0", d)
	}
	// Fill server 0's two slots until t=100ms and t=200ms; server 1 idle.
	p.Occupy(0, 100*simtime.Millisecond, 0)
	p.Occupy(0, 200*simtime.Millisecond, 0)
	if d := p.EstQueueDelay(0, simtime.Second); d != 0 {
		t.Fatalf("pool with an idle server reports delay %v", d)
	}
	// Fill the last slot: earliest horizon is now server 0's 100ms slot.
	p.Occupy(1, 300*simtime.Millisecond, 0)
	if d := p.EstQueueDelay(0, simtime.Second); d != 100*simtime.Millisecond {
		t.Fatalf("full pool delay = %v, want 100ms", d)
	}
	// Stacking onto the earliest slot pushes the horizon to the next one.
	p.Occupy(0, 50*simtime.Millisecond, 0)
	if d := p.EstQueueDelay(0, simtime.Second); d != 150*simtime.Millisecond {
		t.Fatalf("stacked pool delay = %v, want 150ms", d)
	}
	// Time passing drains the delay.
	if d := p.EstQueueDelay(150*simtime.Millisecond, simtime.Second); d != 0 {
		t.Fatalf("delay after horizon = %v, want 0", d)
	}
}
