package audit

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"cqabench/internal/cq"
	"cqabench/internal/cqa"
	"cqabench/internal/harness"
	"cqabench/internal/obs"
	"cqabench/internal/obs/manifest"
	"cqabench/internal/relation"
	"cqabench/internal/scenario"
)

// testWorkload builds a tiny two-pair workload over hand-written
// inconsistent databases — fast enough to audit with several trials.
func testWorkload(t testing.TB) *scenario.Workload {
	t.Helper()
	s := relation.MustSchema([]relation.RelDef{
		{Name: "Employee", Attrs: []string{"id", "name", "dept"}, KeyLen: 1},
	}, nil)
	db := relation.NewDatabase(s)
	db.MustInsert("Employee", 1, "Bob", "HR")
	db.MustInsert("Employee", 1, "Bob", "IT")
	db.MustInsert("Employee", 2, "Alice", "IT")
	db.MustInsert("Employee", 2, "Tim", "IT")
	db.MustInsert("Employee", 3, "Eve", "IT")
	return &scenario.Workload{
		Name: "audit-test",
		Pairs: []scenario.Pair{
			{Name: "names", DB: db, Query: cq.MustParse("Q(n) :- Employee(i, n, 'IT')", db.Dict)},
			{Name: "boolean", DB: db, Query: cq.MustParse("Q() :- Employee(1, n1, d), Employee(2, n2, d)", db.Dict)},
		},
	}
}

func TestRunCalibratesEveryScheme(t *testing.T) {
	w := testWorkload(t)
	cfg := DefaultConfig()
	cfg.Reps = 4
	cfg.Registry = obs.NewRegistry()
	rep, err := Run(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tuples == 0 {
		t.Fatal("no tuples audited")
	}
	if len(rep.Schemes) != len(cqa.Schemes) {
		t.Fatalf("%d scheme calibrations, want %d", len(rep.Schemes), len(cqa.Schemes))
	}
	for _, s := range rep.Schemes {
		want := rep.Tuples * cfg.Reps
		if s.Estimates+s.TimedOut != want {
			t.Fatalf("%s: %d estimates + %d timeouts, want %d", s.Scheme, s.Estimates, s.TimedOut, want)
		}
		// The paper's guarantee: violations happen with probability <= delta.
		// The schemes empirically overdeliver by a wide margin, so the exact
		// bound is a safe test assertion at these sample sizes.
		if s.ViolationRate > rep.Delta {
			t.Errorf("%s: observed violation rate %.3f exceeds delta %.2f", s.Scheme, s.ViolationRate, rep.Delta)
		}
		if s.Error.Max < s.Error.P50 || s.Error.P99 < s.Error.P50 {
			t.Fatalf("%s: inconsistent error quantiles %+v", s.Scheme, s.Error)
		}
		if s.Samples.Min <= 0 || s.Samples.Max < s.Samples.Min || s.Samples.P50 < s.Samples.Min || s.Samples.P50 > s.Samples.Max {
			t.Fatalf("%s: inconsistent sample dist %+v", s.Scheme, s.Samples)
		}
		var bucketTotal int
		prevLe := int64(0)
		for _, b := range s.Samples.Buckets {
			if b.Le <= prevLe || b.Le&(b.Le-1) != 0 {
				t.Fatalf("%s: bucket bound %d not an increasing power of two", s.Scheme, b.Le)
			}
			prevLe = b.Le
			bucketTotal += b.Count
		}
		if bucketTotal != s.Estimates {
			t.Fatalf("%s: buckets hold %d estimates, want %d", s.Scheme, bucketTotal, s.Estimates)
		}
	}
}

func TestRunIsDeterministic(t *testing.T) {
	w := testWorkload(t)
	cfg := DefaultConfig()
	cfg.Reps = 2
	cfg.Schemes = []cqa.Scheme{cqa.Natural, cqa.KL}
	cfg.Registry = obs.NewRegistry()
	a, err := Run(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Registry = obs.NewRegistry()
	b, err := Run(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same config, different reports:\n%+v\n%+v", a, b)
	}
}

func TestRunRecordsMetrics(t *testing.T) {
	w := testWorkload(t)
	cfg := DefaultConfig()
	cfg.Reps = 2
	cfg.Schemes = []cqa.Scheme{cqa.KLM}
	reg := obs.NewRegistry()
	cfg.Registry = reg
	rep, err := Run(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lbl := obs.L("scheme", "KLM")
	cal := rep.Schemes[0]
	if got := reg.Histogram("cqa_empirical_error", lbl).Snapshot().Count; got != uint64(cal.Estimates) {
		t.Fatalf("cqa_empirical_error count %d, want %d", got, cal.Estimates)
	}
	if got := reg.Histogram("cqa_samples_to_convergence", lbl).Snapshot().Count; got != uint64(cal.Estimates) {
		t.Fatalf("cqa_samples_to_convergence count %d, want %d", got, cal.Estimates)
	}
	if got := reg.Counter("cqa_guarantee_violations_total", lbl).Value(); got != int64(cal.Violations) {
		t.Fatalf("cqa_guarantee_violations_total %d, want %d", got, cal.Violations)
	}
}

func TestConfigValidation(t *testing.T) {
	w := testWorkload(t)
	for _, cfg := range []Config{
		{Config: harness.Config{Opts: cqa.Options{Eps: 0, Delta: 0.25}, Reps: 1}},
		{Config: harness.Config{Opts: cqa.Options{Eps: 0.1, Delta: 1}, Reps: 1}},
		{Config: harness.Config{Opts: cqa.Options{Eps: 0.1, Delta: 0.25}, Reps: 0}},
	} {
		if _, err := Run(context.Background(), w, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestReportJSONEnvelope(t *testing.T) {
	w := testWorkload(t)
	cfg := DefaultConfig()
	cfg.Reps = 1
	cfg.Schemes = []cqa.Scheme{cqa.Natural}
	cfg.Registry = obs.NewRegistry()
	rep, err := Run(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := manifest.Collect("cqabench audit", nil)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf, &m); err != nil {
		t.Fatal(err)
	}
	var envelope struct {
		Manifest *manifest.RunManifest `json:"manifest"`
		Report   *Report               `json:"report"`
	}
	if err := json.Unmarshal(buf.Bytes(), &envelope); err != nil {
		t.Fatalf("envelope does not parse: %v", err)
	}
	if envelope.Manifest == nil || envelope.Manifest.Tool != "cqabench audit" {
		t.Fatalf("manifest missing or wrong: %+v", envelope.Manifest)
	}
	if envelope.Report == nil || envelope.Report.Scenario != "audit-test" {
		t.Fatalf("report missing or wrong: %+v", envelope.Report)
	}
}

func TestViolatedAndTable(t *testing.T) {
	rep := &Report{
		Scenario: "x", Eps: 0.1, Delta: 0.25, Trials: 1, Tuples: 2,
		Schemes: []SchemeCalibration{
			{Scheme: "Natural", Estimates: 10, Violations: 0},
			{Scheme: "KL", Estimates: 10, Violations: 5, ViolationRate: 0.5},
		},
	}
	if v := rep.Violated(); len(v) != 1 || v[0] != "KL" {
		t.Fatalf("Violated() = %v", v)
	}
	table := rep.Table()
	for _, want := range []string{"Natural", "KL", "GUARANTEE VIOLATED"} {
		if !bytes.Contains([]byte(table), []byte(want)) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
	rep.Schemes = rep.Schemes[:1]
	if v := rep.Violated(); v != nil {
		t.Fatalf("Violated() = %v, want none", v)
	}
	if table := rep.Table(); !bytes.Contains([]byte(table), []byte("guarantee holds")) {
		t.Fatalf("table missing pass line:\n%s", table)
	}
}

func TestPowerOfTwoBuckets(t *testing.T) {
	got := powerOfTwoBuckets([]int64{1, 2, 3, 4, 9, 1000})
	want := []SampleBucket{{Le: 1, Count: 1}, {Le: 2, Count: 1}, {Le: 4, Count: 2}, {Le: 16, Count: 1}, {Le: 1024, Count: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("buckets = %+v, want %+v", got, want)
	}
	if b := powerOfTwoBuckets(nil); b != nil {
		t.Fatalf("empty sample gave buckets %+v", b)
	}
}
