package audit

import (
	"context"
	"math"
	"testing"
	"time"

	"cqabench/internal/benchtrack"
	"cqabench/internal/cqa"
	"cqabench/internal/harness"
	"cqabench/internal/obs"
	"cqabench/internal/scenario"
	"cqabench/internal/synopsis"
)

// TestOneLoopConsistentReducers runs the harness loop once over a tiny
// balance workload — K = 2 reseeded repetitions, an exact baseline, and
// a sample budget that only one (pair, scheme) exhausts — and checks
// that the records match direct cqa runs and that the figure, bench and
// audit reductions all read those same records.
func TestOneLoopConsistentReducers(t *testing.T) {
	labCfg := scenario.DefaultConfig()
	labCfg.ScaleFactor = 0.0002
	labCfg.QueriesPerJoin = 1
	labCfg.DQGIterations = 20
	lab, err := scenario.NewLab(labCfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := lab.BalanceScenario(0.4, 1, []float64{0.5, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	const k = 2
	cfg := DefaultConfig()
	cfg.Reps = k
	cfg.Timeout = time.Minute
	cfg.Schemes = []cqa.Scheme{cqa.Natural, cqa.KL, cqa.Cover}
	cfg.Registry = obs.NewRegistry()
	seeds := []uint64{cfg.Opts.Seed, cfg.Opts.Seed + 0xBF58476D1CE4E5B9}

	// Direct runs: the expected records — repetition 0 runs the seed
	// itself, later ones derive their own — and each (pair, scheme)'s
	// largest per-tuple draw count across the repetitions' seeds.
	type key struct {
		pair   string
		scheme cqa.Scheme
		seed   uint64
	}
	direct := map[key]cqa.Stats{}
	answers := map[key][]cqa.TupleFreq{}
	peak := map[key]int64{} // seed 0 stands for "any repetition"
	for _, pair := range w.Pairs {
		set, err := synopsis.Build(pair.DB, pair.Query)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range cfg.Schemes {
			for _, seed := range seeds {
				opts := cfg.Opts
				opts.Seed = seed
				opts.Convergence = cqa.ConvergenceOptions{Enabled: true, MaxPoints: 2, MaxTuples: len(set.Entries)}
				res, stats, err := cqa.ApxAnswersFromSetContext(context.Background(), set, s, opts)
				if err != nil {
					t.Fatal(err)
				}
				kk := key{pair.Name, s, seed}
				direct[kk], answers[kk] = stats, res
				for _, tr := range stats.Convergence {
					n := tr.Points[len(tr.Points)-1].Samples
					pk := key{pair.Name, s, 0}
					peak[pk] = max(peak[pk], n)
				}
			}
		}
	}
	// The budget admits every (pair, scheme) but the hungriest one.
	var target key
	for kk, n := range peak {
		if n > peak[target] {
			target = kk
		}
	}
	var budget int64
	for kk, n := range peak {
		if kk != target {
			budget = max(budget, n)
		}
	}
	if budget >= peak[target] {
		t.Fatalf("no budget separates %v (%d draws) from the rest (%d)", target, peak[target], budget)
	}
	cfg.Opts.Budget.MaxSamples = budget

	hcfg := cfg.Config
	hcfg.Reseed = true
	hcfg.Exact = func(p *synopsis.Admissible) (float64, error) { return p.ExactRatioAuto(cfg.MaxImages, 0) }
	fig, err := harness.Run(context.Background(), w, hcfg, func(p scenario.Pair) float64 { return p.Target })
	if err != nil {
		t.Fatal(err)
	}

	// Records: one per (pair, scheme, repetition); completed ones equal
	// the direct runs, exhausted ones carry the harness's timeout
	// accounting, and only the target (pair, scheme) exhausts.
	if len(fig.Raw) != len(w.Pairs)*len(cfg.Schemes)*k {
		t.Fatalf("%d records, want %d", len(fig.Raw), len(w.Pairs)*len(cfg.Schemes)*k)
	}
	exhausted := 0
	for _, m := range fig.Raw {
		kk := key{m.Pair, m.Scheme, seeds[m.Rep]}
		if m.TimedOut {
			exhausted++
			if m.Pair != target.pair || m.Scheme != target.scheme {
				t.Fatalf("%s/%s exhausted the budget; only %s/%s should", m.Pair, m.Scheme, target.pair, target.scheme)
			}
			if m.Reason != "timeout" || m.Samples != 0 || m.Prep != 0 || m.Elapsed != cfg.Timeout || m.Estimates != nil {
				t.Fatalf("exhausted record not zeroed: %+v", m)
			}
			continue
		}
		if m.Samples != direct[kk].Samples || m.Tuples != direct[kk].NumTuples {
			t.Fatalf("%s/%s rep %d: %d samples / %d tuples, direct run %d / %d",
				m.Pair, m.Scheme, m.Rep, m.Samples, m.Tuples, direct[kk].Samples, direct[kk].NumTuples)
		}
		var tupleSum int64
		for i, tf := range answers[kk] {
			if m.Estimates[i] != tf.Freq {
				t.Fatalf("%s/%s rep %d tuple %d: estimate %v, direct %v", m.Pair, m.Scheme, m.Rep, i, m.Estimates[i], tf.Freq)
			}
			tupleSum += m.TupleSamples[i]
		}
		if tupleSum != m.Samples {
			t.Fatalf("%s/%s rep %d: per-tuple draws sum to %d, run drew %d", m.Pair, m.Scheme, m.Rep, tupleSum, m.Samples)
		}
	}
	if exhausted == 0 {
		t.Fatalf("no record exhausted the budget %d", budget)
	}
	t.Logf("budget %d draws: %s/%s exhausts it in %d of %d runs", budget, target.pair, target.scheme, exhausted, k)

	// Figure: each point is the mean of its level's records.
	for _, s := range fig.Series {
		for _, p := range s.Points {
			var sum time.Duration
			n, timeouts := 0, 0
			for _, m := range fig.Raw {
				if m.Scheme == s.Scheme && m.Level == p.Level {
					sum += m.Elapsed
					n++
					if m.TimedOut {
						timeouts++
					}
				}
			}
			if p.Count != n || p.Mean != sum/time.Duration(n) || p.Timeouts != timeouts {
				t.Fatalf("%s at %v: point %+v, records give count %d mean %v timeouts %d",
					s.Scheme, p.Level, p, n, sum/time.Duration(n), timeouts)
			}
		}
	}

	// Bench: run r of a scheme sums its repetition-r records.
	entries := benchtrack.Entries(w.Name, fig, k)
	if len(entries) != len(cfg.Schemes) {
		t.Fatalf("%d bench entries, want %d", len(entries), len(cfg.Schemes))
	}
	for _, e := range entries {
		runs := make([]int64, k)
		var samples int64
		timedOut := map[int]bool{}
		for _, m := range fig.Raw {
			if m.Scheme.String() == e.Scheme {
				runs[m.Rep] += m.Elapsed.Nanoseconds()
				samples += m.Samples
				timedOut[m.Rep] = timedOut[m.Rep] || m.TimedOut
			}
		}
		wantTimeouts := 0
		for _, to := range timedOut {
			if to {
				wantTimeouts++
			}
		}
		for r := range runs {
			if e.RunsNanos[r] != runs[r] {
				t.Fatalf("%s: runs %v, records give %v", e.Scheme, e.RunsNanos, runs)
			}
		}
		if e.SamplesPerOp != float64(samples)/k || e.Timeouts != wantTimeouts {
			t.Fatalf("%s: entry %+v, records give samples/op %v and %d timeouts", e.Scheme, e, float64(samples)/k, wantTimeouts)
		}
		if (e.Scheme == target.scheme.String()) != (e.Timeouts > 0) {
			t.Fatalf("%s: %d timed-out runs; only %s should time out", e.Scheme, e.Timeouts, target.scheme)
		}
	}

	// Audit: every audited tuple of every record is one estimate, or a
	// timed-out estimate when its record exhausted the budget.
	rep := Calibrate(fig, cfg)
	audited := map[string]int{}
	for _, m := range fig.Raw {
		if m.Scheme == cfg.Schemes[0] && m.Rep == 0 {
			for _, f := range m.Exact {
				if f > 0 {
					audited[m.Pair]++
				}
			}
		}
	}
	if rep.Tuples != audited[w.Pairs[0].Name]+audited[w.Pairs[1].Name] {
		t.Fatalf("audit counts %d tuples, records give %v", rep.Tuples, audited)
	}
	for _, cal := range rep.Schemes {
		var estimates, violations, timedOut int
		for _, m := range fig.Raw {
			if m.Scheme.String() != cal.Scheme {
				continue
			}
			if m.TimedOut {
				timedOut += audited[m.Pair]
				continue
			}
			for i, f := range m.Exact {
				if f > 0 {
					estimates++
					if math.Abs(m.Estimates[i]-f)/f > cfg.Opts.Eps+1e-12 {
						violations++
					}
				}
			}
		}
		if cal.Estimates != estimates || cal.Violations != violations || cal.TimedOut != timedOut {
			t.Fatalf("%s: calibration %d estimates / %d violations / %d timed out, records give %d / %d / %d",
				cal.Scheme, cal.Estimates, cal.Violations, cal.TimedOut, estimates, violations, timedOut)
		}
		if cal.Estimates+cal.TimedOut != rep.Tuples*k {
			t.Fatalf("%s: %d estimates + %d timed out, want %d", cal.Scheme, cal.Estimates, cal.TimedOut, rep.Tuples*k)
		}
		if (cal.Scheme == target.scheme.String()) != (cal.TimedOut > 0) {
			t.Fatalf("%s: %d timed-out estimates; only %s should have any", cal.Scheme, cal.TimedOut, target.scheme)
		}
	}
}
