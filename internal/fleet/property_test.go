package fleet

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/simtime"
	"repro/internal/tiers"
)

// randomConfig draws one fleet configuration from seed: pool shape and
// policy (or a tiered topology in any mode, half of them loaded enough
// to promote), run-queue discipline,
// admission bounds, adaptive control, diurnal load, a server fault plan
// with or without migration, and sometimes zero think time over ideal
// (zero-cost) links.
func randomConfig(seed uint64) Config {
	r := entityStream(seed, 0)
	chance := func(n int) bool { return r.intn(n) == 0 }
	clients := 1 + r.intn(48)

	var cfg Config
	hot := false
	if chance(3) {
		topo := tiers.Default(1+r.intn(4), 1+r.intn(2))
		topo.Mode = tiers.Modes()[r.intn(len(tiers.Modes()))]
		cfg = TieredConfig(clients, topo)
		hot = chance(2)
	} else {
		pols := Policies()
		cfg = DefaultConfig(clients, 1+r.intn(6), pols[r.intn(len(pols))])
	}
	cfg.Seed = seed
	cfg.RequestsPerClient = 1 + r.intn(8)
	cfg.Migrate = chance(2)
	if chance(2) {
		cfg.Queue = SJF
	}
	cfg.Admission = Admission{
		MaxQueue: r.intn(6),
		MaxWait:  simtime.PS(r.intn(4)) * simtime.Second,
	}
	if chance(3) {
		cfg.Adaptive = DefaultAdaptive()
	}
	if chance(3) {
		cfg.Workload.DiurnalAmp = 0.9 * r.float()
		cfg.Workload.DiurnalPeriod = simtime.PS(1+r.intn(8)) * simtime.Second
	}
	if hot {
		// Half the tiered draws take the tier bench cell's shape: a 3-way
		// crowd of short, small-footprint tasks under a diurnal tide.
		// Bursts queue work at the cloud, troughs drain edge queues, and
		// state light enough to ship lets the freed edge slots promote
		// cloud work back (promotion is a migration).
		cfg.Tiers.Mode = tiers.ThreeWay
		cfg.Migrate = true
		cfg.Clients += 48 + r.intn(96)
		cfg.RequestsPerClient += 16 + r.intn(24)
		cfg.Workload.TmMax = simtime.Second
		cfg.Workload.MemMin, cfg.Workload.MemMax = 64<<10, 512<<10
		cfg.Workload.DiurnalAmp, cfg.Workload.DiurnalPeriod = 0.6, 10*simtime.Second
		cfg.Admission = DefaultConfig(1, 1, EstAware).Admission
	}
	if chance(4) {
		cfg.Workload.ThinkMin, cfg.Workload.ThinkMax = 0, 0
		cfg.LinkProfiles = []string{"ideal"}
	}

	// At most one fault per server keeps the plan valid: no server gets
	// two terminal events or overlapping windows.
	if chance(2) {
		plan := &faults.ServerPlan{Seed: seed}
		for si := range cfg.Servers {
			at := simtime.PS(r.intn(3000)) * simtime.Millisecond
			e := faults.ServerEvent{Server: si, Start: at, End: at + simtime.PS(1+r.intn(1000))*simtime.Millisecond}
			switch r.intn(5) {
			case 0:
				e.Kind = faults.Crash
			case 1:
				e.Kind = faults.Drain
			case 2:
				e.Kind, e.Factor = faults.Slowdown, 1.5+3*r.float()
			case 3:
				e.Kind = faults.Stall
			default:
				continue
			}
			plan.Events = append(plan.Events, e)
		}
		cfg.ServerFaults = plan
	}
	return cfg
}

// TestRandomConfigInvariants property-tests job conservation and slot
// accounting over seeded random configurations. Run itself fails when a
// server ends the run holding reservations or occupied slots; on top of
// that every request must complete exactly once, a fault-free run must
// account for every dispatch as an offload or a shed, and a tiered run
// must attribute every offload to exactly one tier.
func TestRandomConfigInvariants(t *testing.T) {
	picks := checkEveryPick(t)
	var tiered, faulted, ideal, promoted int
	for seed := uint64(1); seed <= 80; seed++ {
		cfg := randomConfig(seed)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if want := cfg.Clients * cfg.RequestsPerClient; res.Requests != want {
			t.Errorf("seed %d: issued %d requests, want %d", seed, res.Requests, want)
		}
		if got := res.Offloads + res.Declines + res.Sheds + res.Fallbacks; got != res.Requests {
			t.Errorf("seed %d: %d completions of %d requests", seed, got, res.Requests)
		}
		// A fault can turn a dispatched job into a local fallback, so
		// under faults dispatches only bracket offloads + sheds.
		lo, hi := res.Offloads+res.Sheds, res.Offloads+res.Sheds
		if cfg.ServerFaults != nil {
			hi += res.Fallbacks
		}
		if res.Dispatched < lo || res.Dispatched > hi {
			t.Errorf("seed %d: dispatched %d outside [%d, %d] (offloads %d, sheds %d, fallbacks %d)",
				seed, res.Dispatched, lo, hi, res.Offloads, res.Sheds, res.Fallbacks)
		}
		if cfg.Tiers != nil && res.EdgeOffloads+res.CloudOffloads != res.Offloads {
			t.Errorf("seed %d: edge %d + cloud %d offloads != %d offloads",
				seed, res.EdgeOffloads, res.CloudOffloads, res.Offloads)
		}
		if cfg.Tiers != nil {
			tiered++
		}
		if cfg.ServerFaults != nil {
			faulted++
		}
		if cfg.Workload.ThinkMax == 0 {
			ideal++
		}
		if res.Promotions > 0 {
			promoted++
		}
	}
	// The generator must actually reach the regions it claims to cover.
	if tiered == 0 || faulted == 0 || ideal == 0 || promoted == 0 {
		t.Fatalf("generator coverage: %d tiered, %d faulted, %d zero-think, %d promoting configs",
			tiered, faulted, ideal, promoted)
	}
	if *picks == 0 {
		t.Fatal("no pick was checked against the scan oracle")
	}
	t.Logf("%d tiered, %d faulted, %d zero-think, %d promoting configs; %d picks checked",
		tiered, faulted, ideal, promoted, *picks)
}
