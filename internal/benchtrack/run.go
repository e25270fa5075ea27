package benchtrack

import (
	"context"
	"fmt"
	"io"
	"runtime/pprof"
	"time"

	"cqabench/internal/harness"
	"cqabench/internal/obs/manifest"
	"cqabench/internal/scenario"
)

// labSeed pins the scenario construction PRNG: bench scenarios must be
// byte-identical across runs or medians would not be comparable.
const labSeed = 1

// Run executes the bench: for every spec, the harness loop resolves the
// scenario's synopses once (the prep measurement) and runs every scheme
// cfg.Reps times (K, default 5) over them; Entries reduces the records
// to one entry per scheme. Each spec's work is traced under a
// "bench:<scenario>" child of cfg.Trace. A cache in cfg keeps
// BENCH_<tier>.json prep figures from polluting the scheme medians with
// rebuild noise: the first bench run against it builds and persists
// every synopsis, later runs load them. The result carries a provenance
// manifest so BENCH files are attributable.
//
// Every spec's pairs are generated before anything is measured. With a
// non-nil cpuProfile, Run writes a CPU profile of the measured part
// alone there: synopsis preparation and the scheme runs.
func Run(ctx context.Context, specs []Spec, tier string, cfg harness.Config, cpuProfile io.Writer) (Result, error) {
	if cfg.Reps <= 0 {
		cfg.Reps = 5
	}
	res := Result{Tier: tier, K: cfg.Reps}
	res.Manifest = manifest.Collect("cqabench bench", map[string]string{
		"tier":    tier,
		"k":       fmt.Sprint(cfg.Reps),
		"timeout": cfg.Timeout.String(),
		"eps":     fmt.Sprint(cfg.Opts.Eps),
		"delta":   fmt.Sprint(cfg.Opts.Delta),
		"seed":    fmt.Sprint(cfg.Opts.Seed),
	})

	labs := make(map[float64]*scenario.Lab)
	workloads := make([]*scenario.Workload, len(specs))
	for i, spec := range specs {
		lab, ok := labs[spec.SF]
		if !ok {
			labCfg := scenario.DefaultConfig()
			labCfg.ScaleFactor = spec.SF
			labCfg.Seed = labSeed
			labCfg.QueriesPerJoin = 1
			var err error
			lab, err = scenario.NewLab(labCfg)
			if err != nil {
				return res, fmt.Errorf("benchtrack: %s: %w", spec.Name, err)
			}
			labs[spec.SF] = lab
		}
		w, err := workloadFor(lab, spec)
		if err != nil {
			return res, fmt.Errorf("benchtrack: %s: %w", spec.Name, err)
		}
		workloads[i] = w
	}
	if cpuProfile != nil {
		if err := pprof.StartCPUProfile(cpuProfile); err != nil {
			return res, fmt.Errorf("benchtrack: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	for i, spec := range specs {
		// A spec may pin a parallel-schedule pool; the override lives
		// on the per-spec copy so other specs keep the invocation's default.
		scfg := cfg
		if spec.SamplingWorkers != 0 {
			scfg.Opts.SamplingWorkers = spec.SamplingWorkers
		}
		scfg.Trace = cfg.Trace.StartChild("bench:" + spec.Name)
		fig, err := harness.Run(ctx, workloads[i], scfg, func(scenario.Pair) float64 { return spec.Level })
		scfg.Trace.End()
		if err != nil {
			return res, fmt.Errorf("benchtrack: %s: %w", spec.Name, err)
		}
		res.Entries = append(res.Entries, Entries(spec.Name, fig, cfg.Reps)...)
	}
	return res, nil
}

// Entries reduces one scenario's harness records (k repetitions per
// scheme) to its bench entries, one per scheme in the figure's series
// order. Run r of a scheme is its repetition-r records summed over the
// scenario's pairs: latencies and samples add up — a timed-out record
// contributes the nominal timeout and zero samples, per the harness's
// timeout accounting — and a run with a timed-out record counts as a
// timeout. The prep figure is the pairs' summed synopsis preparation
// time.
func Entries(scenario string, fig *harness.Figure, k int) []Entry {
	var prep time.Duration
	for _, p := range fig.PrepTimes {
		prep += p
	}
	out := make([]Entry, 0, len(fig.Series))
	for _, s := range fig.Series {
		e := Entry{Scenario: scenario, Scheme: s.Scheme.String(), PrepNanos: prep.Nanoseconds(), RunsNanos: make([]int64, k)}
		timedOut := make([]bool, k)
		var samples int64
		for _, m := range fig.Raw {
			if m.Scheme != s.Scheme {
				continue
			}
			e.RunsNanos[m.Rep] += m.Elapsed.Nanoseconds()
			samples += m.Samples
			timedOut[m.Rep] = timedOut[m.Rep] || m.TimedOut
			switch e.PrepSource {
			case "":
				e.PrepSource = m.PrepSource
			case m.PrepSource:
			default:
				e.PrepSource = "mixed"
			}
		}
		for _, t := range timedOut {
			if t {
				e.Timeouts++
			}
		}
		e.MedianNanos = int64(Median(nanosToFloats(e.RunsNanos)))
		e.SamplesPerOp = float64(samples) / float64(k)
		out = append(out, e)
	}
	return out
}

func workloadFor(lab *scenario.Lab, spec Spec) (*scenario.Workload, error) {
	switch spec.Family {
	case "noise":
		return lab.NoiseScenario(spec.Balance, spec.Joins, []float64{spec.Level})
	case "balance":
		return lab.BalanceScenario(spec.Noise, spec.Joins, []float64{spec.Level})
	case "joins":
		return lab.JoinsScenario(spec.Noise, spec.Balance, []int{int(spec.Level)})
	default:
		return nil, fmt.Errorf("unknown family %q (want noise, balance or joins)", spec.Family)
	}
}
