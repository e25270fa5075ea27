// Package benchtrack is the continuous-bench subsystem: it runs a fixed
// tier of small scenarios K times per scheme, records the median-of-K
// latency, samples/op and preprocessing time, persists the result as a
// provenance-stamped BENCH_<tier>.json plus an append-only
// results/bench_history.jsonl, and compares a run against a baseline
// with a MAD-based noise threshold so a real perf regression fails CI
// while run-to-run jitter does not.
package benchtrack

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"cqabench/internal/obs/manifest"
)

// Spec is one bench scenario: a scenario family pinned to a single
// level, small enough to run K times per scheme in seconds.
type Spec struct {
	Name    string  `json:"name"`
	Family  string  `json:"family"` // noise, balance or joins
	SF      float64 `json:"sf"`     // TPC-H scale factor
	Noise   float64 `json:"noise"`  // fixed noise (balance, joins families)
	Balance float64 `json:"balance"`
	Joins   int     `json:"joins"` // fixed join level (noise, balance families)
	Level   float64 `json:"level"` // the varied parameter's single value
	// SamplingWorkers, when ≥ 2, runs the scenario's estimates on the
	// parallel schedule (cqa.Options.SamplingWorkers); 0/1 is the
	// sequential one. Parallel entries are directly comparable to their
	// sequential twin: same seed, worker-invariant results.
	SamplingWorkers int `json:"sampling_workers,omitempty"`
}

// Tier resolves a named tier to its scenario list. Tiers are fixed so
// bench results stay comparable across commits.
func Tier(name string) ([]Spec, error) {
	switch name {
	case "smoke":
		// The smallest tier: one scenario, suitable for CI smoke jobs.
		return []Spec{
			{Name: "noise-j1-p04", Family: "noise", SF: 0.0002, Joins: 1, Level: 0.4},
			{Name: "noise-j1-p04-pw4", Family: "noise", SF: 0.0002, Joins: 1, Level: 0.4, SamplingWorkers: 4},
		}, nil
	case "small":
		return []Spec{
			{Name: "noise-j1-p04", Family: "noise", SF: 0.0002, Joins: 1, Level: 0.4},
			{Name: "noise-j1-p08", Family: "noise", SF: 0.0002, Joins: 1, Level: 0.8},
			{Name: "balance-j1-b05", Family: "balance", SF: 0.0002, Noise: 0.5, Joins: 1, Level: 0.5},
		}, nil
	default:
		return nil, fmt.Errorf("benchtrack: unknown tier %q (want one of %v)", name, TierNames())
	}
}

// TierNames lists the defined tiers, smallest first.
func TierNames() []string { return []string{"smoke", "small"} }

// Entry is the bench record of one (scenario, scheme): all K per-run
// latencies (so a later comparison can estimate this entry's own noise),
// their median, and the per-run work/prep figures.
type Entry struct {
	Scenario     string  `json:"scenario"`
	Scheme       string  `json:"scheme"`
	RunsNanos    []int64 `json:"runs_ns"`
	MedianNanos  int64   `json:"median_ns"`
	SamplesPerOp float64 `json:"samples_per_op"`
	PrepNanos    int64   `json:"prep_ns"`
	Timeouts     int     `json:"timeouts,omitempty"`
	// PrepSource records where the scenario's synopses came from:
	// "build" (computed), "load" (synopsis cache) or "mixed". Empty in
	// files written before the cache existed.
	PrepSource string `json:"prep_source,omitempty"`
}

// Result is one bench invocation: provenance manifest, tier, repetition
// count, and one entry per (scenario, scheme). Serialized as
// BENCH_<tier>.json.
type Result struct {
	Manifest manifest.RunManifest `json:"manifest"`
	Tier     string               `json:"tier"`
	K        int                  `json:"k"`
	Entries  []Entry              `json:"entries"`
}

// Key returns the (scenario, scheme) identity entries are matched by.
func (e Entry) Key() string { return e.Scenario + "/" + e.Scheme }

// WriteResult writes r as indented JSON, creating parent directories.
func WriteResult(path string, r Result) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadResult parses a BENCH_<tier>.json file.
func ReadResult(path string) (Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Result{}, err
	}
	var r Result
	if err := json.Unmarshal(b, &r); err != nil {
		return Result{}, fmt.Errorf("benchtrack: %s: %w", path, err)
	}
	return r, nil
}

// Median returns the median of xs (0 when empty), interpolating the
// middle pair for even lengths. xs is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// MAD returns the median absolute deviation of xs — the robust spread
// estimate the regression threshold is built from. Multiply by 1.4826
// for a consistent estimate of a normal σ.
func MAD(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Median(xs)
	devs := make([]float64, len(xs))
	for i, x := range xs {
		devs[i] = math.Abs(x - m)
	}
	return Median(devs)
}

func nanosToFloats(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, n := range ns {
		out[i] = float64(n)
	}
	return out
}
