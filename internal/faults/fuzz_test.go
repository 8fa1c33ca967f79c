package faults

import "testing"

// FuzzParse hardens the -faults spec parser: it must never panic, and any
// plan it accepts must pass Validate with non-negative times.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"drop=0.05,corrupt=0.01,delay=0.02,spike=5ms,outage=100ms-250ms,outage=1s-1.5s,seed=42",
		"outage=3000h-3001h",
		"outage=6000h-6001h",
		"spike=2562h",
		"outage=1s-2s,outage=1500ms-3s",
		"drop=1e-300,seed=18446744073709551615",
		"",
		"=,=",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Parse(%q) accepted a plan Validate rejects: %v", spec, err)
		}
		if p.MaxDelay < 0 {
			t.Fatalf("Parse(%q): negative max delay %v", spec, p.MaxDelay)
		}
		for _, w := range p.Outages {
			if w.Start < 0 || w.End < 0 {
				t.Fatalf("Parse(%q): negative outage window [%v, %v)", spec, w.Start, w.End)
			}
		}
	})
}

// FuzzParseServer is FuzzParse for the -server-faults spec parser.
func FuzzParseServer(f *testing.F) {
	for _, s := range []string{
		"crash=1@300ms,drain=0@1s,slow=2@100ms-2sx3,stall=3@50ms-80ms,seed=7",
		"crash=0@3000h",
		"drain=1@6000h",
		"crash=0@2562h",
		"slow=0@1s-6000hx2",
		"slow=0@1s-2sxNaN",
		"crash=99999999999999999999@1s",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseServer(spec)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("ParseServer(%q) accepted a plan Validate rejects: %v", spec, err)
		}
		for _, e := range p.Events {
			if e.Start < 0 || e.End < 0 {
				t.Fatalf("ParseServer(%q): negative event time [%v, %v)", spec, e.Start, e.End)
			}
		}
	})
}
