package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
)

var (
	validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	validUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

type benchFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestMetricNames checks that BENCHMARK.json and the program declare the
// same workloads and metrics, and that every name is valid and used once.
func TestMetricNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	use := func(name string) {
		if !validName.MatchString(name) {
			t.Errorf("invalid name %q", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range bf.Workloads {
		use(w.Name)
		if _, err := newWorkload(w.Name, 1, &reference{}); err != nil {
			t.Errorf("workload %q: %v", w.Name, err)
		}
	}
	for _, list := range []struct {
		file []struct{ Name, Unit string }
		code []metricDef
	}{{bf.EndToEnd, endToEnd}, {bf.PerLayer, perLayer}} {
		if len(list.file) != len(list.code) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program %d", len(list.file), len(list.code))
			continue
		}
		for i, m := range list.file {
			use(m.Name)
			if !validUnit.MatchString(m.Unit) {
				t.Errorf("metric %q: invalid unit %q", m.Name, m.Unit)
			}
			if c := list.code[i]; c.name != m.Name || c.unit != m.Unit {
				t.Errorf("metric %d: BENCHMARK.json has %s [%s], the program %s [%s]", i, m.Name, m.Unit, c.name, c.unit)
			}
		}
	}
}

// smallFleet is a fleet workload cheap enough for a unit test.
func smallFleet(seed uint64) fleet.Config {
	cfg := fleet.DefaultConfig(40, 4, fleet.EstAware)
	cfg.Seed = seed
	cfg.Shards = 2
	return cfg
}

// TestPerturbedFleetResultFails checks that a fleet result differing from
// the reference in one simulated field, or breaking a validity condition,
// counts as a failed operation.
func TestPerturbedFleetResultFails(t *testing.T) {
	f := newFleetBench("fleet-wide", smallFleet, 3, &reference{})
	f.prepare()
	f.unit()
	if f.runs[0].err != nil {
		t.Fatal(f.runs[0].err)
	}
	var clean tally
	f.verify(&clean) // no stored digest: checked against the sequential engine
	if clean.attempted != 1 || clean.failed != 0 {
		t.Fatalf("clean run: %d failed of %d", clean.failed, clean.attempted)
	}

	good := f.runs[0].res
	perturbed := *good
	perturbed.Offloads++
	noDeclines := *good
	noDeclines.Declines = 0
	d, err := resultDigest(good, false)
	if err != nil {
		t.Fatal(err)
	}
	f.ref = &reference{Fleet: map[string]map[string]string{"fleet-wide": {strconv.Itoa(3): d}}}
	f.runs = []fleetRun{{res: good}, {res: &perturbed}, {res: &noDeclines}}
	var got tally
	f.verify(&got)
	if got.attempted != 3 || got.failed != 2 {
		t.Fatalf("want 2 failed of 3, got %d of %d", got.failed, got.attempted)
	}
}

// TestPerturbedProgramDigestFails checks the pipeline side: one changed
// simulated value, or a program missing from the reference, fails.
func TestPerturbedProgramDigestFails(t *testing.T) {
	want := programDigest{Program: "p", OutputSHA: "ab", LocalPS: 10, FastPS: 5, SlowPS: 7, LocalMJ: 1.5, FastMJ: 0.5,
		SlowMJ: 0.75, FastBytes: 100, SlowBytes: 100, FastOffloads: 1, SlowOffloads: 1}
	p := newPipeline(&reference{Pipeline: []programDigest{want}})
	bumped := want
	bumped.FastMJ += 1e-12
	missing := want
	missing.Program = "q"
	p.runs = []programRun{{program: "p", digest: want}, {program: "p", digest: bumped}, {program: "q", digest: missing}}
	var got tally
	p.verify(&got)
	if got.attempted != 3 || got.failed != 2 {
		t.Fatalf("want 2 failed of 3, got %d of %d", got.failed, got.attempted)
	}
}

// TestSelfTimeExact checks the self-time arithmetic on a hand-built tree:
// overlapping children count once, a child reaching past its parent
// counts only inside it, and a grandchild is charged to its own parent.
func TestSelfTimeExact(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{name: "root", parent: -1, start: ms(0), end: ms(100)},
		{name: "a", parent: 0, start: ms(10), end: ms(40)},
		{name: "b", parent: 0, start: ms(30), end: ms(50)},  // overlaps a by 10
		{name: "a", parent: 0, start: ms(90), end: ms(120)}, // 10 inside root
		{name: "c", parent: 1, start: ms(15), end: ms(25)},
		{name: "other", parent: -1, start: ms(200), end: ms(207)},
	}
	got := selfByName(spans, 0)
	want := map[string]time.Duration{
		"root":  ms(100 - 40 - 10), // children cover [10,50) and [90,100)
		"a":     ms(30-10) + ms(30),
		"b":     ms(20),
		"c":     ms(10),
		"other": ms(7),
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self(%s) = %v, want %v", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d names, want %d", len(got), len(want))
	}
	// Starting later excludes earlier spans entirely.
	if late := selfByName(spans, 5); len(late) != 1 || late["other"] != ms(7) {
		t.Errorf("selfByName from 5 = %v", late)
	}
}

// TestBucketInnermostWins checks that a CPU sample goes to the bucket of
// its innermost matching frame, and to sync only when no other bucket
// matches.
func TestBucketInnermostWins(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mallocgc", "repro/internal/fleet.(*dispatcher).pickAmong", "repro/internal/fleet.(*machine).handleIntent"}, "fleet.cpu.dispatch"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/fleet.(*dispatcher).pickAmong"}, "fleet.cpu.gc"},
		{[]string{"sort.insertionSort", "repro/internal/fleet.(*Result).finish"}, "fleet.cpu.finish"},
		{[]string{"repro/internal/fleet.(*event).before", "repro/internal/fleet.(*eventQueue).siftDown"}, "fleet.cpu.heap"},
		{[]string{"runtime.futex", "runtime.chanrecv", "repro/internal/fleet.runSharded"}, "fleet.cpu.sync"},
		{[]string{"runtime.futex", "runtime.lock2", "runtime.mallocgc", "repro/internal/fleet.(*dispatcher).pickAmong"}, "fleet.cpu.dispatch"},
		{[]string{"runtime.futex", "runtime.park_m", "runtime.gopark", "runtime.gcBgMarkWorker"}, "fleet.cpu.gc"},
		{[]string{"repro/internal/fleet.(*machine).handleArrive"}, ""},
	}
	for _, c := range cases {
		if got := bucketOf(c.frames); got != c.want {
			t.Errorf("bucketOf(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

// TestTracedFleetMetricsDeclared checks that a traced fleet unit reports
// only declared per-layer metrics, with shares that add up to at most 1.
func TestTracedFleetMetricsDeclared(t *testing.T) {
	declared := map[string]bool{}
	for _, d := range perLayer {
		declared[d.name] = true
	}
	f := newFleetBench("fleet-wide", smallFleet, 1, &reference{})
	f.prepare()
	vals := f.traced(newSpanLog())
	if len(vals) == 0 {
		t.Fatal("traced unit reported nothing")
	}
	sum := 0.0
	for k, v := range vals {
		if !declared[k] {
			t.Errorf("undeclared metric %q", k)
		}
		if strings.HasPrefix(k, "fleet.cpu.") {
			sum += v
		}
	}
	if sum > 1+1e-9 {
		t.Errorf("cpu shares sum to %g", sum)
	}
}
