package faults

import (
	"strings"
	"testing"

	"repro/internal/simtime"
)

func TestDecideDeterministic(t *testing.T) {
	plan := Plan{Seed: 42, DropRate: 0.2, CorruptRate: 0.1, DelayRate: 0.1, MaxDelay: simtime.Millisecond}
	a := MustInjector(plan)
	b := MustInjector(plan)
	for i := 0; i < 10_000; i++ {
		at := simtime.PS(i) * simtime.Microsecond
		fa, fb := a.Decide(at), b.Decide(at)
		if fa != fb {
			t.Fatalf("transfer %d: injectors diverged: %+v vs %+v", i, fa, fb)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
	if a.Stats().Total() == 0 {
		t.Fatal("no faults injected over 10k transfers at 40% combined rate")
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	a := MustInjector(Plan{Seed: 1, DropRate: 0.5})
	b := MustInjector(Plan{Seed: 2, DropRate: 0.5})
	same := true
	for i := 0; i < 256; i++ {
		if a.Decide(0).Kind != b.Decide(0).Kind {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical 256-transfer schedules")
	}
}

func TestRatesApproximatelyHonored(t *testing.T) {
	in := MustInjector(Plan{Seed: 7, DropRate: 0.25})
	const n = 50_000
	for i := 0; i < n; i++ {
		in.Decide(0)
	}
	got := float64(in.Stats().Drops) / n
	if got < 0.22 || got > 0.28 {
		t.Fatalf("drop rate 0.25 realized as %.4f over %d transfers", got, n)
	}
}

func TestOutageWindows(t *testing.T) {
	in := MustInjector(Plan{Outages: []Window{
		{Start: 10 * simtime.Millisecond, End: 20 * simtime.Millisecond},
	}})
	if f := in.Decide(5 * simtime.Millisecond); f.Kind != None {
		t.Fatalf("before window: got %v", f.Kind)
	}
	if f := in.Decide(10 * simtime.Millisecond); f.Kind != Outage {
		t.Fatalf("at window start: got %v", f.Kind)
	}
	if f := in.Decide(19 * simtime.Millisecond); f.Kind != Outage {
		t.Fatalf("inside window: got %v", f.Kind)
	}
	if f := in.Decide(20 * simtime.Millisecond); f.Kind != None {
		t.Fatalf("at window end (exclusive): got %v", f.Kind)
	}
	if in.Stats().OutageHits != 2 {
		t.Fatalf("OutageHits = %d, want 2", in.Stats().OutageHits)
	}
}

func TestDelayBounded(t *testing.T) {
	max := 2 * simtime.Millisecond
	in := MustInjector(Plan{Seed: 3, DelayRate: 1, MaxDelay: max})
	for i := 0; i < 1000; i++ {
		f := in.Decide(0)
		if f.Kind != Delay {
			t.Fatalf("rate 1 did not inject a delay")
		}
		if f.Delay <= 0 || f.Delay > max {
			t.Fatalf("delay %v outside (0, %v]", f.Delay, max)
		}
	}
}

func TestNilInjector(t *testing.T) {
	var in *Injector
	if f := in.Decide(0); f != (Fate{}) {
		t.Fatalf("nil injector injected %+v", f)
	}
	if in.Stats().Total() != 0 {
		t.Fatal("nil injector has stats")
	}
}

func TestParseRoundTrip(t *testing.T) {
	p, err := Parse("drop=0.05,corrupt=0.01,delay=0.02,spike=5ms,outage=100ms-250ms,outage=1s-1.5s,seed=42")
	if err != nil {
		t.Fatal(err)
	}
	want := Plan{
		Seed:        42,
		DropRate:    0.05,
		CorruptRate: 0.01,
		DelayRate:   0.02,
		MaxDelay:    5 * simtime.Millisecond,
		Outages: []Window{
			{Start: 100 * simtime.Millisecond, End: 250 * simtime.Millisecond},
			{Start: simtime.Second, End: 1500 * simtime.Millisecond},
		},
	}
	if p.Seed != want.Seed || p.DropRate != want.DropRate || p.CorruptRate != want.CorruptRate ||
		p.DelayRate != want.DelayRate || p.MaxDelay != want.MaxDelay || len(p.Outages) != 2 ||
		p.Outages[0] != want.Outages[0] || p.Outages[1] != want.Outages[1] {
		t.Fatalf("Parse = %+v, want %+v", p, want)
	}
	back, err := Parse(p.String())
	if err != nil {
		t.Fatalf("re-parsing %q: %v", p.String(), err)
	}
	if back.String() != p.String() {
		t.Fatalf("round trip changed plan: %q vs %q", back.String(), p.String())
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, spec := range []string{
		"",
		"drop",
		"drop=nope",
		"drop=1.5",
		"wat=1",
		"outage=5ms",
		"outage=30ms-10ms",
		"spike=-4ms",
		"seed=-1",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

// TestParseDurationOverflow: durations whose picosecond count overflows
// int64 must be rejected by name. Unbounded, 3000h wrapped negative (a
// confusing "negative time" error) and 6000h wrapped all the way around
// to a silently accepted ~875.9h.
func TestParseDurationOverflow(t *testing.T) {
	for _, tc := range []struct {
		spec   string
		server bool
	}{
		{"outage=3000h-3001h", false},
		{"outage=6000h-6001h", false},
		{"spike=6000h", false},
		{"crash=0@3000h", true},
		{"drain=1@6000h", true},
		{"stall=0@1s-6000h", true},
	} {
		var err error
		if tc.server {
			_, err = ParseServer(tc.spec)
		} else {
			_, err = Parse(tc.spec)
		}
		if err == nil || !strings.Contains(err.Error(), "exceeds the simulated clock's range") {
			t.Errorf("%q: got %v, want an out-of-range error", tc.spec, err)
		}
	}
	// The largest whole hour that fits still parses exactly.
	p, err := ParseServer("crash=0@2562h")
	if err != nil {
		t.Fatal(err)
	}
	if want := 2562 * 3600 * simtime.Second; p.Events[0].Start != want {
		t.Errorf("crash=0@2562h parsed as %v, want %v", p.Events[0].Start, want)
	}
}
