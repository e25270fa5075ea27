// Package audit calibrates the (ε, δ) guarantee empirically: it replays
// scenario pairs through each approximation scheme — repeatedly, with
// independent seeds, on the harness's measurement loop — and compares
// every estimate against the exact relative frequency
// (component-decomposed inclusion–exclusion with a knowledge-compilation
// fallback, Lemma 4.1(3)). The output is a
// calibration report per (scheme, scenario): the empirical error
// distribution, the observed violation rate next to the promised δ, and
// a samples-to-convergence histogram.
//
// It answers the operational question VerdictDB-style systems ship
// beside every approximate answer — "how often does the guarantee fail,
// and by how much, under repeated sampling?" — from the same run
// records the figures and the bench reduce. Every estimate also
// feeds the cqa_empirical_error / cqa_guarantee_violations_total /
// cqa_samples_to_convergence metrics, so a live service accumulates the
// same calibration continuously.
package audit

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"cqabench/internal/cqa"
	"cqabench/internal/harness"
	"cqabench/internal/obs"
	"cqabench/internal/obs/manifest"
	"cqabench/internal/scenario"
	"cqabench/internal/synopsis"
)

// Config parameterizes a calibration run: the harness settings
// (Opts.Eps and Opts.Delta are the guarantee under audit, Opts.Seed the
// base seed, Reps the trial count, Timeout the per-run budget) plus the
// audit's own. Run sets the harness's Reseed and Exact itself.
type Config struct {
	harness.Config
	// MaxImages bounds the exact computation per entangled component
	// (0 = the synopsis package's default). Tuples whose exact frequency
	// is intractable are skipped and counted.
	MaxImages int
	// Registry receives the calibration metrics (nil = obs.Default()).
	Registry *obs.Registry
}

// DefaultConfig returns the paper's guarantee (ε = 0.1, δ = 0.25) with a
// small trial count suitable for smoke calibration.
func DefaultConfig() Config {
	return Config{
		Config:    harness.Config{Opts: cqa.Options{Eps: 0.1, Delta: 0.25, Seed: 5489}, Reps: 3},
		MaxImages: 22,
	}
}

func (c Config) validate() error {
	if err := c.Opts.Validate(); err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	if c.Reps <= 0 {
		return fmt.Errorf("audit: trials must be positive (got %d)", c.Reps)
	}
	return nil
}

// ErrorDist summarizes a relative-error sample.
type ErrorDist struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

// SampleBucket is one bin of the samples-to-convergence histogram: the
// number of estimates that converged within Le draws (and more than the
// previous bucket's Le). Bounds are powers of two.
type SampleBucket struct {
	Le    int64 `json:"le"`
	Count int   `json:"count"`
}

// SampleDist summarizes the draws-to-convergence distribution.
type SampleDist struct {
	Min     int64          `json:"min"`
	Max     int64          `json:"max"`
	Mean    float64        `json:"mean"`
	P50     int64          `json:"p50"`
	Buckets []SampleBucket `json:"buckets"`
}

// SchemeCalibration is one scheme's empirical calibration over the
// audited workload.
type SchemeCalibration struct {
	Scheme string `json:"scheme"`
	// Estimates is the number of audited estimates (tuples × trials,
	// minus timeouts).
	Estimates int `json:"estimates"`
	// Violations counts estimates with |a − f| > ε·f: the events the
	// guarantee promises happen with probability at most δ.
	Violations int `json:"violations"`
	// ViolationRate is Violations/Estimates — the observed δ.
	ViolationRate float64 `json:"violation_rate"`
	// TimedOut counts estimates abandoned on the per-estimate budget.
	TimedOut int        `json:"timed_out,omitempty"`
	Error    ErrorDist  `json:"error"`
	Samples  SampleDist `json:"samples"`
}

// Report is a full calibration: the audited guarantee, the workload, and
// one calibration per scheme.
type Report struct {
	Scenario string  `json:"scenario"`
	Eps      float64 `json:"eps"`
	Delta    float64 `json:"delta"`
	Trials   int     `json:"trials"`
	// Tuples is the number of answer tuples with a tractable exact
	// frequency; each contributes Trials estimates per scheme.
	Tuples int `json:"tuples"`
	// SkippedTuples counts tuples excluded because their exact frequency
	// was intractable (or zero, where relative error is undefined).
	SkippedTuples int                 `json:"skipped_tuples,omitempty"`
	Schemes       []SchemeCalibration `json:"schemes"`
}

// schemeAccum collects one scheme's raw observations during a run.
type schemeAccum struct {
	relErrs  []float64
	samples  []int64
	timedOut int
}

// Run audits every configured scheme over the workload: the harness
// loop runs each scheme Reps times per pair — trial t is one
// cqa.ApxAnswersFromSetContext run over the pair's synopsis, seeded per
// trial (trial 0 with Opts.Seed itself), the same code path bench,
// figure and serve measure — with an exact baseline per tuple, and
// Calibrate scores the records.
func Run(ctx context.Context, w *scenario.Workload, cfg Config) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	hcfg := cfg.Config
	hcfg.Reseed = true
	hcfg.Exact = func(p *synopsis.Admissible) (float64, error) { return p.ExactRatioAuto(cfg.MaxImages, 0) }
	fig, err := harness.Run(ctx, w, hcfg, func(scenario.Pair) float64 { return 0 })
	if err != nil {
		return nil, fmt.Errorf("audit: %w", err)
	}
	return Calibrate(fig, cfg), nil
}

// Calibrate reduces exact-baseline harness records to the calibration
// report. A tuple is audited when its exact frequency is tractable and
// positive (relative error is undefined at f = 0); each completed record
// contributes one estimate per audited tuple of its pair, and a
// timed-out record counts those tuples as timed-out estimates. Every
// estimate also feeds the calibration metrics in cfg.Registry.
func Calibrate(fig *harness.Figure, cfg Config) *Report {
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default()
	}
	eps := cfg.Opts.Eps
	rep := &Report{Scenario: fig.Title, Eps: eps, Delta: cfg.Opts.Delta, Trials: cfg.Reps}
	acc := make(map[cqa.Scheme]*schemeAccum, len(fig.Series))
	for _, s := range fig.Series {
		acc[s.Scheme] = &schemeAccum{}
	}
	counted := make(map[string]bool) // pairs whose tuples are tallied
	for _, m := range fig.Raw {
		if !counted[m.Pair] {
			counted[m.Pair] = true
			for _, f := range m.Exact {
				if f > 0 {
					rep.Tuples++
				} else {
					rep.SkippedTuples++
				}
			}
		}
		a := acc[m.Scheme]
		lbl := obs.L("scheme", m.Scheme.String())
		for i, exact := range m.Exact {
			if !(exact > 0) {
				continue
			}
			if m.TimedOut {
				a.timedOut++
				continue
			}
			relErr := math.Abs(m.Estimates[i]-exact) / exact
			a.relErrs = append(a.relErrs, relErr)
			a.samples = append(a.samples, m.TupleSamples[i])
			reg.Histogram("cqa_empirical_error", lbl).Observe(relErr)
			reg.Histogram("cqa_samples_to_convergence", lbl).Observe(float64(m.TupleSamples[i]))
			if relErr > eps+1e-12 {
				reg.Counter("cqa_guarantee_violations_total", lbl).Inc()
			}
		}
	}
	for _, s := range fig.Series {
		rep.Schemes = append(rep.Schemes, calibrate(s.Scheme, acc[s.Scheme], eps))
	}
	sort.Slice(rep.Schemes, func(i, j int) bool { return rep.Schemes[i].Scheme < rep.Schemes[j].Scheme })
	return rep
}

// calibrate reduces one scheme's raw observations to its calibration.
func calibrate(s cqa.Scheme, a *schemeAccum, eps float64) SchemeCalibration {
	cal := SchemeCalibration{Scheme: s.String(), Estimates: len(a.relErrs), TimedOut: a.timedOut}
	if len(a.relErrs) == 0 {
		return cal
	}
	errs := append([]float64(nil), a.relErrs...)
	sort.Float64s(errs)
	var errSum float64
	for _, e := range errs {
		errSum += e
		if e > eps+1e-12 {
			cal.Violations++
		}
	}
	cal.ViolationRate = float64(cal.Violations) / float64(len(errs))
	cal.Error = ErrorDist{
		Mean: errSum / float64(len(errs)),
		P50:  quantF(errs, 0.50),
		P90:  quantF(errs, 0.90),
		P99:  quantF(errs, 0.99),
		Max:  errs[len(errs)-1],
	}

	samples := append([]int64(nil), a.samples...)
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	var sampleSum int64
	for _, n := range samples {
		sampleSum += n
	}
	cal.Samples = SampleDist{
		Min:     samples[0],
		Max:     samples[len(samples)-1],
		Mean:    float64(sampleSum) / float64(len(samples)),
		P50:     samples[quantIdx(len(samples), 0.50)],
		Buckets: powerOfTwoBuckets(samples),
	}
	return cal
}

// quantIdx returns the index of the q-quantile in a sorted sample of
// length n (nearest-rank).
func quantIdx(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

func quantF(sorted []float64, q float64) float64 {
	return sorted[quantIdx(len(sorted), q)]
}

// powerOfTwoBuckets bins a sorted sample into ≤2^k upper bounds.
func powerOfTwoBuckets(sorted []int64) []SampleBucket {
	var out []SampleBucket
	le := int64(1)
	i := 0
	for i < len(sorted) {
		for sorted[i] > le {
			le *= 2
		}
		n := 0
		for i < len(sorted) && sorted[i] <= le {
			n++
			i++
		}
		out = append(out, SampleBucket{Le: le, Count: n})
		le *= 2
	}
	return out
}

// Violated returns the schemes whose observed violation rate exceeds the
// promised δ — the guarantee's empirical failures.
func (r *Report) Violated() []string {
	var out []string
	for _, s := range r.Schemes {
		if s.Estimates > 0 && s.ViolationRate > r.Delta {
			out = append(out, s.Scheme)
		}
	}
	return out
}

// Table renders the calibration for terminals.
func (r *Report) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Guarantee calibration: %s (eps=%.2f, delta=%.2f, %d tuples x %d trials)\n",
		r.Scenario, r.Eps, r.Delta, r.Tuples, r.Trials)
	fmt.Fprintf(&b, "%-8s %9s %10s %9s %9s %9s %9s %11s %11s\n",
		"scheme", "estimates", "violations", "obs-rate", "mean-err", "p90-err", "max-err", "p50-samples", "max-samples")
	for _, s := range r.Schemes {
		fmt.Fprintf(&b, "%-8s %9d %10d %8.1f%% %9.4f %9.4f %9.4f %11d %11d\n",
			s.Scheme, s.Estimates, s.Violations, 100*s.ViolationRate,
			s.Error.Mean, s.Error.P90, s.Error.Max, s.Samples.P50, s.Samples.Max)
	}
	if r.SkippedTuples > 0 {
		fmt.Fprintf(&b, "(%d tuples skipped: exact frequency intractable or zero)\n", r.SkippedTuples)
	}
	if v := r.Violated(); len(v) > 0 {
		fmt.Fprintf(&b, "GUARANTEE VIOLATED (rate > delta): %s\n", strings.Join(v, ", "))
	} else {
		fmt.Fprintf(&b, "guarantee holds: every scheme's observed violation rate <= delta\n")
	}
	return b.String()
}

// WriteJSON emits the calibration wrapped in the standard provenance
// envelope ({"manifest": ..., "report": ...}).
func (r *Report) WriteJSON(w io.Writer, m *manifest.RunManifest) error {
	envelope := struct {
		Manifest *manifest.RunManifest `json:"manifest,omitempty"`
		Report   *Report               `json:"report"`
	}{Manifest: m, Report: r}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(envelope)
}
