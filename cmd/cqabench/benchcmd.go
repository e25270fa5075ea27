package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cqabench/internal/benchtrack"
	"cqabench/internal/cqa"
	"cqabench/internal/harness"
	"cqabench/internal/obs"
	"cqabench/internal/obs/manifest"
)

// cmdBench is the continuous-bench front-end: it runs a fixed tier of
// small scenarios K times per scheme, writes the provenance-stamped
// BENCH_<tier>.json, appends to results/bench_history.jsonl, and — with
// -compare — fails (exit nonzero) on a regression beyond the MAD-based
// noise threshold, making the bench trajectory a CI-enforceable
// artifact.
func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	tier := fs.String("tier", "smoke", "scenario tier: "+strings.Join(benchtrack.TierNames(), " or "))
	k := fs.Int("k", 5, "repetitions per (scenario, scheme); medians are over K runs")
	timeout := fs.Duration("timeout", 30*time.Second, "per scheme-run timeout")
	eps := fs.Float64("eps", 0.1, "relative error")
	delta := fs.Float64("delta", 0.25, "failure probability")
	seed := fs.Uint64("seed", 5489, "scheme PRNG seed")
	schemesFlag := fs.String("schemes", "", "comma-separated scheme subset (default: all four)")
	out := fs.String("out", "", "BENCH result path (default results/BENCH_<tier>.json; empty = default)")
	history := fs.String("history", filepath.Join("results", "bench_history.jsonl"), "append a history record here (empty = skip)")
	compare := fs.String("compare", "", "baseline BENCH json to compare against; exits nonzero on regression")
	madFactor := fs.Float64("compare-mad-factor", 0, "MAD multiplier of the noise threshold (0 = default 5)")
	minRel := fs.Float64("compare-min-rel", 0, "relative floor of the noise threshold (0 = default 0.25)")
	minAbs := fs.Duration("compare-min-abs", 0, "absolute floor of the noise threshold (0 = default 5ms)")
	failRatio := fs.Float64("compare-fail-ratio", 0, "current/baseline ratio at which a regression fails the run; below it regressions only warn (0 = any regression fails)")
	traceOut := fs.String("trace-out", "", "write the bench span tree as Chrome Trace Event JSON here (plus a .jsonl journal)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the measured runs here (synopsis preparation and scheme runs, not pair generation)")
	logFormat := fs.String("log-format", "text", "progress/status log format: text or json")
	openCache := cacheFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := newLogger(*logFormat)
	if err != nil {
		return err
	}
	cache, err := openCache()
	if err != nil {
		return err
	}
	specs, err := benchtrack.Tier(*tier)
	if err != nil {
		return err
	}
	var schemes []cqa.Scheme
	if *schemesFlag != "" {
		for _, name := range strings.Split(*schemesFlag, ",") {
			s, err := cqa.ParseScheme(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			schemes = append(schemes, s)
		}
	}

	var traceRoot *obs.Span
	if *traceOut != "" {
		traceRoot = obs.NewSpan("cqabench.bench")
	}
	var profile io.Writer
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		profile = f
	}
	res, err := benchtrack.Run(context.Background(), specs, *tier, harness.Config{
		Reps:    *k,
		Timeout: *timeout,
		Opts:    cqa.Options{Eps: *eps, Delta: *delta, Seed: *seed},
		Schemes: schemes,
		Trace:   traceRoot,
		Cache:   cache,
	}, profile)
	if err != nil {
		return err
	}
	if f, ok := profile.(*os.File); ok {
		if err := f.Close(); err != nil {
			return fmt.Errorf("bench: cpu profile: %w", err)
		}
		logger.Info("wrote cpu profile", "path", *cpuProfile)
	}
	for _, e := range res.Entries {
		logger.Info("bench entry",
			"scenario", e.Scenario,
			"scheme", e.Scheme,
			"median", time.Duration(e.MedianNanos).Round(time.Microsecond).String(),
			"samples_per_op", e.SamplesPerOp,
			"prep", time.Duration(e.PrepNanos).Round(time.Microsecond).String(),
			"prep_source", e.PrepSource,
			"timeouts", e.Timeouts)
	}
	logCacheSummary(logger, cache)
	res.Manifest.Tool = "cqabench bench"
	res.Manifest.MergeConfig(manifest.FlagConfig(fs))

	outPath := *out
	if outPath == "" {
		outPath = filepath.Join("results", "BENCH_"+*tier+".json")
	}
	if err := benchtrack.WriteResult(outPath, res); err != nil {
		return err
	}
	logger.Info("wrote bench result", "path", outPath, "entries", len(res.Entries))

	if *history != "" {
		if err := benchtrack.AppendHistory(*history, benchtrack.HistoryFromResult(res)); err != nil {
			return err
		}
		logger.Info("appended bench history", "path", *history)
	}
	if traceRoot != nil {
		traceRoot.End()
		journalPath, err := writeTraceFiles(*traceOut, &res.Manifest, traceRoot)
		if err != nil {
			return err
		}
		logger.Info("wrote trace", "chrome", *traceOut, "journal", journalPath)
	}

	if *compare != "" {
		baseline, err := benchtrack.ReadResult(*compare)
		if err != nil {
			return fmt.Errorf("bench: baseline: %w", err)
		}
		rep := benchtrack.Compare(baseline, res, benchtrack.CompareOptions{
			MADFactor: *madFactor,
			MinRel:    *minRel,
			MinAbs:    *minAbs,
		})
		fmt.Print(rep.String())
		if n := rep.Regressions(); n > 0 {
			// With -compare-fail-ratio, mild regressions (below the ratio)
			// only warn — noisy CI runners should not block a merge — while
			// anything at or past the ratio still fails.
			hard := 0
			for _, d := range rep.Deltas {
				if d.Regressed && (*failRatio <= 0 || d.Ratio >= *failRatio) {
					hard++
				}
			}
			if hard > 0 {
				return fmt.Errorf("bench: %d regression(s) against %s", hard, *compare)
			}
			logger.Info("bench regressions below fail ratio (warning only)",
				"regressions", n, "fail_ratio", *failRatio, "baseline", *compare)
		}
		if len(rep.MissingInCurrent) > 0 {
			return fmt.Errorf("bench: %d baseline entr(ies) missing from the current run", len(rep.MissingInCurrent))
		}
		logger.Info("bench comparison done", "baseline", *compare, "entries", len(rep.Deltas))
	}
	return nil
}
