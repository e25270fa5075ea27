package benchtrack

import (
	"context"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cqabench/internal/cqa"
	"cqabench/internal/harness"
	"cqabench/internal/obs"
	"cqabench/internal/obs/manifest"
)

func TestMedianAndMAD(t *testing.T) {
	if got := Median(nil); got != 0 {
		t.Errorf("empty median: %g", got)
	}
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median: %g", got)
	}
	if got := Median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("even median: %g", got)
	}
	// MAD of {1,2,3,4,100}: median 3, deviations {2,1,0,1,97}, MAD 1.
	if got := MAD([]float64{1, 2, 3, 4, 100}); got != 1 {
		t.Errorf("MAD: got %g, want 1 (robust to the outlier)", got)
	}
	// Median must not mutate its input.
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 {
		t.Error("Median sorted its input in place")
	}
}

func TestTiers(t *testing.T) {
	for _, name := range TierNames() {
		specs, err := Tier(name)
		if err != nil || len(specs) == 0 {
			t.Errorf("tier %q: %v (%d specs)", name, err, len(specs))
		}
		for _, s := range specs {
			if s.Name == "" || s.Family == "" || s.SF <= 0 {
				t.Errorf("tier %q has underspecified spec %+v", name, s)
			}
		}
	}
	if _, err := Tier("bogus"); err == nil {
		t.Error("unknown tier accepted")
	}
}

// syntheticResult builds a Result whose every entry has the given median
// with tight, slightly varied runs around it.
func syntheticResult(tier string, medians map[string]int64) Result {
	r := Result{
		Manifest: manifest.Collect("test", nil),
		Tier:     tier,
		K:        5,
	}
	for key, med := range medians {
		i := strings.LastIndex(key, "/")
		scenario, scheme := key[:i], key[i+1:]
		jitter := med / 100 // 1% run-to-run noise
		e := Entry{
			Scenario:    scenario,
			Scheme:      scheme,
			MedianNanos: med,
			RunsNanos: []int64{
				med - 2*jitter, med - jitter, med, med + jitter, med + 2*jitter,
			},
			SamplesPerOp: 1000,
			PrepNanos:    med / 10,
		}
		r.Entries = append(r.Entries, e)
	}
	return r
}

// TestCompareRegressionDetection is the -compare acceptance scenario: an
// identical re-run passes while a synthetic ≥2× regression is flagged.
func TestCompareRegressionDetection(t *testing.T) {
	base := syntheticResult("small", map[string]int64{
		"noise-j1-p04/KLM": 50_000_000, // 50ms
		"noise-j1-p04/Nat": 80_000_000,
	})

	// Identical re-run: zero deltas, zero regressions.
	rep := Compare(base, base, CompareOptions{})
	if got := rep.Regressions(); got != 0 {
		t.Fatalf("identical re-run flagged %d regressions:\n%s", got, rep)
	}
	if len(rep.Deltas) != 2 || len(rep.MissingInCurrent) != 0 || len(rep.NewInCurrent) != 0 {
		t.Fatalf("identical re-run report: %+v", rep)
	}

	// Small jitter (+3%) stays under the MAD/MinRel threshold.
	jittered := syntheticResult("small", map[string]int64{
		"noise-j1-p04/KLM": 51_500_000,
		"noise-j1-p04/Nat": 82_400_000,
	})
	if got := Compare(base, jittered, CompareOptions{}).Regressions(); got != 0 {
		t.Errorf("3%% jitter flagged as regression")
	}

	// A 2× inflation on one entry is a regression; the other stays ok.
	inflated := syntheticResult("small", map[string]int64{
		"noise-j1-p04/KLM": 100_000_000, // 2×
		"noise-j1-p04/Nat": 80_000_000,
	})
	rep = Compare(base, inflated, CompareOptions{})
	if got := rep.Regressions(); got != 1 {
		t.Fatalf("2x inflation: %d regressions, want 1:\n%s", got, rep)
	}
	for _, d := range rep.Deltas {
		if d.Scheme == "KLM" && !d.Regressed {
			t.Errorf("inflated entry not flagged: %+v", d)
		}
		if d.Scheme == "Nat" && d.Regressed {
			t.Errorf("unchanged entry flagged: %+v", d)
		}
	}

	// An improvement is never a regression.
	improved := syntheticResult("small", map[string]int64{
		"noise-j1-p04/KLM": 20_000_000,
		"noise-j1-p04/Nat": 40_000_000,
	})
	if got := Compare(base, improved, CompareOptions{}).Regressions(); got != 0 {
		t.Errorf("improvement flagged as regression")
	}
}

func TestCompareMissingAndNewEntries(t *testing.T) {
	base := syntheticResult("small", map[string]int64{"noise-j1-p04/KLM": 50_000_000})
	cur := syntheticResult("small", map[string]int64{"noise-j1-p08/Nat": 60_000_000})
	rep := Compare(base, cur, CompareOptions{})
	if len(rep.MissingInCurrent) != 1 || rep.MissingInCurrent[0] != "noise-j1-p04/KLM" {
		t.Errorf("missing: %v", rep.MissingInCurrent)
	}
	if len(rep.NewInCurrent) != 1 || rep.NewInCurrent[0] != "noise-j1-p08/Nat" {
		t.Errorf("new: %v", rep.NewInCurrent)
	}
}

// TestCompareNoiseThresholdScalesWithMAD: noisy baseline runs widen the
// threshold so a median shift inside the noise band does not flag.
func TestCompareNoiseThresholdScalesWithMAD(t *testing.T) {
	base := syntheticResult("small", map[string]int64{"noise-j1-p04/KLM": 50_000_000})
	// Make the baseline very noisy: ±40% runs.
	base.Entries[0].RunsNanos = []int64{30_000_000, 40_000_000, 50_000_000, 60_000_000, 70_000_000}
	cur := syntheticResult("small", map[string]int64{"noise-j1-p04/KLM": 70_000_000})
	rep := Compare(base, cur, CompareOptions{})
	if rep.Regressions() != 0 {
		t.Errorf("shift within the baseline's own noise band flagged:\n%s", rep)
	}
}

func TestResultRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "BENCH_small.json")
	r := syntheticResult("small", map[string]int64{"noise-j1-p04/KLM": 50_000_000})
	if err := WriteResult(path, r); err != nil {
		t.Fatal(err)
	}
	back, err := ReadResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Tier != r.Tier || back.K != r.K || len(back.Entries) != 1 {
		t.Errorf("round trip: %+v", back)
	}
	if back.Entries[0].MedianNanos != 50_000_000 || len(back.Entries[0].RunsNanos) != 5 {
		t.Errorf("entry round trip: %+v", back.Entries[0])
	}
	if back.Manifest.GoVersion == "" {
		t.Error("manifest lost in round trip")
	}
	if _, err := ReadResult(filepath.Join(dir, "nope.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestHistoryRoundTrip is the bench_history.jsonl append/parse test:
// multiple appends accumulate and parse back in order.
func TestHistoryRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results", "bench_history.jsonl")
	r1 := syntheticResult("smoke", map[string]int64{"noise-j1-p04/KLM": 50_000_000})
	r2 := syntheticResult("smoke", map[string]int64{"noise-j1-p04/KLM": 52_000_000})
	r2.Manifest.Start = r1.Manifest.Start.Add(time.Hour)
	for _, r := range []Result{r1, r2} {
		if err := AppendHistory(path, HistoryFromResult(r)); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := ReadHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if !recs[1].Time.Equal(recs[0].Time.Add(time.Hour)) {
		t.Errorf("record order/time lost: %v then %v", recs[0].Time, recs[1].Time)
	}
	for i, rec := range recs {
		if rec.Tier != "smoke" || rec.K != 5 || len(rec.Entries) != 1 {
			t.Errorf("record %d: %+v", i, rec)
		}
		e := rec.Entries[0]
		if e.Scenario != "noise-j1-p04" || e.Scheme != "KLM" || e.MedianNanos == 0 {
			t.Errorf("record %d entry: %+v", i, e)
		}
	}
}

// TestRunSmokeTier exercises the real runner end to end on the smallest
// tier with one scheme and K=2: entries carry K runs, a positive median
// and prep time, and the trace span captures the bench structure — one
// bench span per spec over the harness's pair spans.
func TestRunSmokeTier(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a TPC-H scenario lab")
	}
	specs, err := Tier("smoke")
	if err != nil {
		t.Fatal(err)
	}
	root := obs.NewSpan("bench.test")
	var progressed int
	res, err := Run(context.Background(), specs, "smoke", harness.Config{
		Reps:     2,
		Timeout:  30 * time.Second,
		Opts:     cqa.DefaultOptions(),
		Schemes:  []cqa.Scheme{cqa.KLM},
		Trace:    root,
		Progress: func(harness.Measurement) { progressed++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	if len(res.Entries) != 2 || res.K != 2 {
		t.Fatalf("entries=%d k=%d, want 2/2 (sequential + pw4 smoke specs)", len(res.Entries), res.K)
	}
	e := res.Entries[0]
	if e.Scenario != "noise-j1-p04" || e.Scheme != "KLM" {
		t.Errorf("entry identity: %+v", e)
	}
	// The parallel twin runs the same scenario through the substream
	// pool; it draws the same worker-invariant sample counts.
	e2 := res.Entries[1]
	if e2.Scenario != "noise-j1-p04-pw4" || e2.Scheme != "KLM" {
		t.Errorf("parallel entry identity: %+v", e2)
	}
	if len(e2.RunsNanos) != 2 || e2.MedianNanos <= 0 || e2.SamplesPerOp <= 0 {
		t.Errorf("parallel entry measurements: %+v", e2)
	}
	if len(e.RunsNanos) != 2 || e.MedianNanos <= 0 || e.PrepNanos <= 0 {
		t.Errorf("entry measurements: %+v", e)
	}
	med := Median(nanosToFloats(e.RunsNanos))
	if math.Abs(med-float64(e.MedianNanos)) > 1 {
		t.Errorf("median %d does not match runs %v", e.MedianNanos, e.RunsNanos)
	}
	if e.SamplesPerOp <= 0 {
		t.Errorf("samples/op: %g", e.SamplesPerOp)
	}
	if res.Manifest.Config["tier"] != "smoke" || res.Manifest.GoVersion == "" {
		t.Errorf("manifest: %+v", res.Manifest)
	}
	data := root.Data()
	if len(data.Children) != 2 || data.Children[0].Name != "bench:noise-j1-p04" ||
		data.Children[1].Name != "bench:noise-j1-p04-pw4" {
		t.Fatalf("trace roots: %+v", data.Children)
	}
	pairs := data.Children[0].Children
	names := map[string]int{}
	for _, p := range pairs {
		for _, c := range p.Children {
			names[c.Name]++
		}
	}
	if len(pairs) == 0 || names["synopsis.build"] != len(pairs) || names["cqa.KLM"] != 2*len(pairs) {
		t.Errorf("bench trace: %d pair spans, children %v", len(pairs), names)
	}
	if progressed != 2*2*len(pairs) {
		t.Errorf("progressed %d measurements, want %d", progressed, 2*2*len(pairs))
	}
}
