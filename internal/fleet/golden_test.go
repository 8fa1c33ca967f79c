package fleet

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/goldentest"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/tiers"
)

// marshalResult canonicalizes a run for byte-level comparison.
func marshalResult(t *testing.T, cfg Config) []byte {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestResultGolden pins the fleet's output: the SHA-256 of every cell's
// Result JSON, across all policies on a plain pool, under crash+drain
// faults with migration, and with the adaptive controller riding a
// diurnal curve, plus a hot tiered 3-way cell with tail sampling on.
// Any change to the event order, an RNG stream, the statistics or the
// JSON shape shows up here; regenerate with `make golden` only for an
// intentional output change.
func TestResultGolden(t *testing.T) {
	picks := checkEveryPick(t)
	variants := []struct {
		name   string
		mutate func(Config) Config
	}{
		{"plain", func(c Config) Config { return c }},
		{"faults", func(c Config) Config {
			c.ServerFaults = &faults.ServerPlan{Events: []faults.ServerEvent{
				{Kind: faults.Crash, Server: 0, Start: 800 * simtime.Millisecond},
				{Kind: faults.Drain, Server: 2, Start: 1200 * simtime.Millisecond},
			}}
			c.Migrate = true
			return c
		}},
		{"adaptive", func(c Config) Config {
			c.Adaptive = DefaultAdaptive()
			c.Workload.DiurnalAmp = 0.6
			c.Workload.DiurnalPeriod = 2 * simtime.Second
			return c
		}},
	}
	var out strings.Builder
	for _, v := range variants {
		for _, pol := range Policies() {
			cfg := v.mutate(DefaultConfig(64, 4, pol))
			cfg.Seed = 9
			fmt.Fprintf(&out, "%s/%s %x\n", v.name, pol, sha256.Sum256(marshalResult(t, cfg)))
		}
	}

	// The tiered cell is loaded enough that promotion and demotion both
	// fire, and tracing plus tail sampling stay on, so the pin covers the
	// cross-tier event paths and the retained exemplar set (its span
	// segments ride in the Result JSON) rather than idling past them.
	tcfg := tieredBenchConfig(96, tiers.ThreeWay)
	tcfg.Seed = 9
	tcfg.Exemplars = 8
	tcfg.Tracer = obs.NewTracer(1 << 17)
	tres, err := Run(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	if tres.Promotions == 0 || tres.Demotions == 0 {
		t.Fatalf("tiered cell idle (%d promotions, %d demotions): pick a hotter cell",
			tres.Promotions, tres.Demotions)
	}
	if len(tres.Exemplars) == 0 || tres.TraceDropped != 0 {
		t.Fatalf("tiered cell retained %d exemplars with %d drops: sampling not exercised",
			len(tres.Exemplars), tres.TraceDropped)
	}
	tb, err := json.Marshal(tres)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "tiers/3way %x\n", sha256.Sum256(tb))

	goldentest.Check(t, "results.sha256", []byte(out.String()))
	if *picks == 0 {
		t.Fatal("no pick was checked against the scan oracle")
	}
}
