package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"cqabench/internal/cqa"
	"cqabench/internal/harness"
	"cqabench/internal/obs"
	"cqabench/internal/obs/manifest"
	"cqabench/internal/obs/trace"
	"cqabench/internal/scenario"
)

// cmdRun is the instrumented harness front-end: it measures one scenario
// family end to end while exposing live metrics over HTTP
// (-metrics-addr), streaming per-measurement progress (-progress),
// writing a machine-readable metrics snapshot (results/metrics.json by
// default) when done, and — with -trace-out — persisting the run's span
// tree as a Perfetto-loadable Chrome trace plus a JSONL event journal.
// Every artifact carries the run's provenance manifest.
func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	scenarioName := fs.String("scenario", "noise", "scenario family: noise, balance or joins")
	sf := fs.Float64("sf", 0.0005, "TPC-H scale factor")
	seed := fs.Uint64("seed", 1, "PRNG seed")
	timeout := fs.Duration("timeout", 10*time.Second, "per (pair, scheme) timeout")
	eps := fs.Float64("eps", 0.1, "relative error")
	delta := fs.Float64("delta", 0.25, "failure probability")
	queries := fs.Int("queries", 2, "queries per join level")
	balance := fs.Float64("balance", 0, "fixed balance (noise, joins scenarios)")
	noisep := fs.Float64("noise", 0.5, "fixed noise (balance, joins scenarios)")
	joins := fs.Int("joins", 1, "fixed join level (noise, balance scenarios)")
	levelsFlag := fs.String("levels", "", "comma-separated x-axis levels (defaults per scenario)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /metrics.json, expvar and pprof on this address (e.g. :9090)")
	progress := fs.Bool("progress", false, "stream per-(pair, scheme) progress lines to stderr")
	metricsOut := fs.String("metrics-out", filepath.Join("results", "metrics.json"), "write the final metrics snapshot here (empty = skip)")
	traceOut := fs.String("trace-out", "", "write the run's span tree as Chrome Trace Event JSON here (plus a .jsonl journal next to it)")
	logFormat := fs.String("log-format", "text", "progress/status log format: text or json")
	hold := fs.Duration("hold", 0, "keep serving -metrics-addr for this long after the run")
	jsonPath := fs.String("json", "", "write the figure (with raw span breakdowns) as JSON")
	csvPath := fs.String("csv", "", "write raw measurements as CSV")
	openCache := cacheFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if familyLevels[*scenarioName] == nil {
		return fmt.Errorf("run: unknown scenario %q (want noise, balance or joins)", *scenarioName)
	}
	levels, err := parseLevels("levels", *levelsFlag, familyLevels[*scenarioName])
	if err != nil {
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

	closeMetrics, err := serveMetricsIfRequested(*metricsAddr, logger)
	if err != nil {
		return err
	}
	defer closeMetrics()

	labCfg := scenario.DefaultConfig()
	labCfg.ScaleFactor = *sf
	labCfg.Seed = *seed
	labCfg.QueriesPerJoin = *queries
	lab, err := scenario.NewLab(labCfg)
	if err != nil {
		return err
	}
	// Ctrl-C aborts the run cooperatively: the estimators observe the
	// signal context at their chunk boundaries and the harness surfaces
	// a canceled error instead of dying mid-measurement.
	runCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	hcfg := harness.Config{
		Opts:    cqa.Options{Eps: *eps, Delta: *delta, Seed: 5489},
		Timeout: *timeout,
		Schemes: cqa.Schemes,
		Cache:   cache,
	}
	if *progress {
		hcfg.Progress = progressPrinter(logger)
	}
	var traceRoot *obs.Span
	if *traceOut != "" {
		traceRoot = obs.NewSpan("cqabench.run")
		hcfg.Trace = traceRoot
	}

	var fig *harness.Figure
	switch *scenarioName {
	case "noise":
		w, err := lab.NoiseScenario(*balance, *joins, levels)
		if err != nil {
			return err
		}
		if fig, err = harness.RunNoise(runCtx, w, hcfg); err != nil {
			return err
		}
		fmt.Print(fig.Table())
	case "balance":
		w, err := lab.BalanceScenario(*noisep, *joins, levels)
		if err != nil {
			return err
		}
		if fig, err = harness.RunBalance(runCtx, w, hcfg); err != nil {
			return err
		}
		fmt.Print(fig.Table())
	case "joins":
		w, err := lab.JoinsScenario(*noisep, *balance, joinCounts(levels))
		if err != nil {
			return err
		}
		if fig, err = harness.RunJoins(runCtx, w, hcfg); err != nil {
			return err
		}
		fmt.Print(fig.ShareTable())
	}

	var totalPrep time.Duration
	for _, p := range fig.PrepTimes {
		totalPrep += p
	}
	logger.Info("synopsis prep", "pairs", len(fig.PrepTimes), "total", totalPrep.Round(time.Microsecond).String())
	logCacheSummary(logger, cache)

	// The harness filled the manifest's environment and harness config;
	// layer the full CLI flag set and tool name on top.
	fig.Manifest.Tool = "cqabench run"
	fig.Manifest.MergeConfig(manifest.FlagConfig(fs))

	if *csvPath != "" {
		if err := writeFile(*csvPath, fig.WriteCSV); err != nil {
			return err
		}
	}
	if *jsonPath != "" {
		if err := writeFile(*jsonPath, fig.WriteJSON); err != nil {
			return err
		}
	}
	if traceRoot != nil {
		traceRoot.End()
		journalPath, err := writeTraceFiles(*traceOut, fig.Manifest, traceRoot)
		if err != nil {
			return err
		}
		logger.Info("wrote trace", "chrome", *traceOut, "journal", journalPath)
	}
	if *metricsOut != "" {
		if err := writeMetricsSnapshot(*metricsOut, fig.Manifest); err != nil {
			return err
		}
		logger.Info("wrote metrics snapshot", "path", *metricsOut)
	}
	if *metricsAddr != "" && *hold > 0 {
		logger.Info("holding metrics endpoint", "for", hold.String())
		time.Sleep(*hold)
	}
	return nil
}

// progressPrinter returns a harness progress callback that logs one line
// per (pair, scheme) measurement, with cumulative sample and timeout
// totals read back from the obs counters.
func progressPrinter(logger *slog.Logger) func(harness.Measurement) {
	reg := obs.Default()
	start := time.Now()
	n := 0
	return func(m harness.Measurement) {
		n++
		var samples, timeouts int64
		for _, s := range cqa.Schemes {
			lbl := obs.L("scheme", s.String())
			samples += reg.Counter("sampler_samples_total", lbl).Value()
			timeouts += reg.Counter("harness_timeouts_total", lbl).Value()
		}
		attrs := []any{
			"t", time.Since(start).Round(100 * time.Millisecond).String(),
			"n", n,
			"pair", m.Pair,
			"scheme", m.Scheme.String(),
			"level", m.Level,
			"elapsed", m.Elapsed.Round(time.Microsecond).String(),
			"samples", m.Samples,
			"total_samples", samples,
			"total_timeouts", timeouts,
		}
		if m.Reason != "" {
			attrs = append(attrs, "reason", m.Reason)
		}
		logger.Info("measurement", attrs...)
	}
}

// writeTraceFiles persists a finished span tree under path: Chrome Trace
// Event JSON at path itself and the JSONL event journal next to it
// (extension swapped for .jsonl). Both embed the manifest. Returns the
// journal path.
func writeTraceFiles(path string, m *manifest.RunManifest, root *obs.Span) (string, error) {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return "", err
		}
	}
	data := root.Data()
	err := writeFile(path, func(w io.Writer) error {
		return trace.WriteChrome(w, m, []obs.SpanData{data})
	})
	if err != nil {
		return "", err
	}
	journalPath := strings.TrimSuffix(path, filepath.Ext(path)) + ".jsonl"
	err = writeFile(journalPath, func(w io.Writer) error {
		return trace.WriteJournal(w, m, []obs.SpanData{data})
	})
	return journalPath, err
}

// writeMetricsSnapshot dumps the default registry as JSON wrapped in a
// provenance envelope ({"manifest": ..., "metrics": ...}), creating the
// target directory if needed.
func writeMetricsSnapshot(path string, m *manifest.RunManifest) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	var buf bytes.Buffer
	if err := obs.Default().WriteJSON(&buf); err != nil {
		return err
	}
	envelope := struct {
		Manifest *manifest.RunManifest `json:"manifest,omitempty"`
		Metrics  json.RawMessage       `json:"metrics"`
	}{Manifest: m, Metrics: buf.Bytes()}
	return writeFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(envelope)
	})
}

func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// serveMetricsIfRequested is shared by the other harness-driving
// subcommands (figure, validate): it starts the endpoint when addr is
// non-empty and returns a closer (a no-op closer otherwise).
func serveMetricsIfRequested(addr string, logger *slog.Logger) (func(), error) {
	if addr == "" {
		return func() {}, nil
	}
	srv, bound, err := obs.Serve(addr)
	if err != nil {
		return nil, fmt.Errorf("metrics endpoint: %w", err)
	}
	logger.Info("serving metrics", "url", "http://"+bound+"/metrics")
	return func() { srv.Close() }, nil
}
