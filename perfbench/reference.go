package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/interp"
	"repro/internal/workloads"
)

// referencePath is where --update-reference writes, relative to the
// repository root.
const referencePath = "perfbench/reference.json"

// referenceSeeds are the seeds whose fleet digests are stored; any other
// seed is checked against the sequential engine at run time.
const referenceSeeds = 10

var errNoReference = errors.New("no stored reference")

//go:embed reference.json
var referenceJSON []byte

// reference is the stored simulated output the benchmark checks every
// run against: per program for the pipeline, and per workload and seed
// the SHA-256 of the fleet Result's JSON.
type reference struct {
	Pipeline []programDigest              `json:"pipeline"`
	Fleet    map[string]map[string]string `json:"fleet"`
}

func loadReference() (*reference, error) {
	var r reference
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return &r, nil
}

// checkProgram compares one program's digest with the stored one.
func (r *reference) checkProgram(d programDigest) error {
	for _, want := range r.Pipeline {
		if want.Program != d.Program {
			continue
		}
		if want != d {
			got, _ := json.Marshal(d)
			exp, _ := json.Marshal(want)
			return fmt.Errorf("simulated digest differs from the reference:\n got  %s\n want %s", got, exp)
		}
		return nil
	}
	return fmt.Errorf("%s: %w", d.Program, errNoReference)
}

// updateReference recomputes the reference from the current sources: one
// pipeline pass, and the fleet digests of seeds 1..referenceSeeds from the
// sequential engine.
func updateReference(path string) error {
	ref := reference{Fleet: map[string]map[string]string{}}
	core.DefaultCache = interp.NewCompilationCache()
	for _, w := range workloads.All() {
		r, err := experiments.RunProgram(w)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		out := runOutputs{r.Local, r.Fast, r.Slow}
		if err := checkOutputs(out); err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		ref.Pipeline = append(ref.Pipeline, digestOf(w.Name, out))
	}
	for _, name := range []string{"fleet-wide", "fleet-tiered"} {
		ref.Fleet[name] = map[string]string{}
		for seed := uint64(1); seed <= referenceSeeds; seed++ {
			f := newFleetBench(name, configs[name], seed, &ref)
			cfg := f.config(seed)
			cfg.Shards = 0
			res, err := fleet.Run(cfg)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			if err := f.valid(res); err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			d, err := resultDigest(res, false)
			if err != nil {
				return err
			}
			ref.Fleet[name][strconv.FormatUint(seed, 10)] = d
		}
	}
	b, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
