package experiments

import (
	"strings"
	"testing"

	"repro/internal/tiers"
)

// TestTierSweepFloor runs the committed benchmark configuration end to
// end: the floor must hold (3-way at or under both static baselines on
// both aggregates, non-vacuous migration) and the sweep
// must be deterministic in the seed.
func TestTierSweepFloor(t *testing.T) {
	b, err := TierSweep(TierBenchLoads(), 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.CheckFloor(); err != nil {
		t.Fatal(err)
	}
	if got, want := len(b.Cells), len(TierBenchLoads())*len(tiers.Modes()); got != want {
		t.Fatalf("sweep produced %d cells, want %d", got, want)
	}
	a, err := TierJSON(b)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := TierSweep(TierBenchLoads(), 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := TierJSON(b2)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(c) {
		t.Error("tier sweep is not deterministic in the seed")
	}
}

// TestTierFloorRejects pins the floor's failure modes.
func TestTierFloorRejects(t *testing.T) {
	ok := &TierBench{
		ThreeWayP99Ms: 1, EdgeOnlyP99Ms: 2, CloudOnlyP99Ms: 2,
		ThreeWayGeoMs: 1, EdgeOnlyGeoMs: 2, CloudOnlyGeoMs: 2,
		Cells: []*TierBenchCell{{Promotions: 1}},
	}
	if err := ok.CheckFloor(); err != nil {
		t.Fatalf("healthy bench rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*TierBench)
		want   string
	}{
		{"p99", func(b *TierBench) { b.ThreeWayP99Ms = 3 }, "p99 floor"},
		{"geomean", func(b *TierBench) { b.ThreeWayGeoMs = 3 }, "geomean floor"},
		{"vacuous", func(b *TierBench) { b.Cells = []*TierBenchCell{{}} }, "vacuous"},
	}
	for _, tc := range cases {
		b := *ok
		tc.mutate(&b)
		err := b.CheckFloor()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckFloor = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}
