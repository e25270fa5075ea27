package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"cqabench/internal/server"
	"cqabench/internal/syncache"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func tinyConfig(t *testing.T, workload string) config {
	return config{workload: workload, seed: 7, seconds: 200 * time.Millisecond, tiny: true, out: t.TempDir()}
}

// TestTinyPasses runs a tiny pass of every workload, untraced and
// traced, and checks the result line: correct, and exactly the
// catalogued metrics with their units.
func TestTinyPasses(t *testing.T) {
	for name := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"-workload", name, "-seed", "7", "-seconds", "0.2", "-trace", trace, "-size", "tiny", "-out", t.TempDir()}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("result %+v", res)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok {
						t.Errorf("metric %s missing", d.name)
						continue
					}
					if m.Unit != d.unit {
						t.Errorf("metric %s: unit %q, want %q", d.name, m.Unit, d.unit)
					}
				}
				if trace == "0" {
					for _, d := range endToEnd {
						if res.Metrics[d.name].Value <= 0 {
							t.Errorf("end-to-end metric %s is %v", d.name, res.Metrics[d.name].Value)
						}
					}
					if len(lines) < 2 {
						t.Errorf("no workload metric lines before the result")
					}
				}
			})
		}
	}
}

// TestMetricNames checks every metric name and unit against the
// benchmark contract's character sets, and that names are unique.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
			t.Errorf("bad metric %q unit %q", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %s listed twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json describes this program:
// the same workloads and metrics, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads, program has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %+v", w)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, program has %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s[%d] = %s %s, program has %s %s", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better %q", m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s: bound %v", m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
	var setupBound, maxBound float64
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" {
			setupBound = *m.Bound
		}
		maxBound = math.Max(maxBound, *m.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
}

// TestGateTripsOnDoctoredBaseline checks that the accuracy gate fails
// when the exact baseline no longer matches the estimates.
func TestGateTripsOnDoctoredBaseline(t *testing.T) {
	cfg := tinyConfig(t, "estimate")
	d, err := setupEstimate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport("estimate")
	ref := d.pass(rep, nil)
	d.accuracy(rep, ref)
	if len(rep.problems) != 0 {
		t.Fatalf("honest baseline failed the gate: %v", rep.problems)
	}
	for _, p := range d.pairs {
		for i := range p.exact {
			p.exact[i] = math.Min(1, p.exact[i]*1.5)
		}
	}
	d.accuracy(rep, ref)
	if len(rep.problems) == 0 {
		t.Fatal("doctored baseline passed the gate")
	}
}

// TestReplayTripsOnDoctoredReference checks that the replay fails when
// the traced pass it must reproduce says something else.
func TestReplayTripsOnDoctoredReference(t *testing.T) {
	cfg := tinyConfig(t, "estimate")
	d, err := setupEstimate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := &tracer{}
	rep := newReport("estimate")
	ref := d.pass(rep, tr.root("estimate"))
	d.replay(rep, tr.root("replay"), ref)
	if len(rep.problems) != 0 {
		t.Fatalf("faithful replay failed: %v", rep.problems)
	}
	ref.draws[1][0][0]++
	d.replay(rep, tr.root("replay"), ref)
	if len(rep.problems) == 0 {
		t.Fatal("replay matched a doctored draw count")
	}
}

// TestServeCheckTripsOnDoctoredAnswer checks that a response that
// differs from the library answer fails the check, down to one ulp.
func TestServeCheckTripsOnDoctoredAnswer(t *testing.T) {
	digest := func(freq float64) uint64 {
		raw, err := json.Marshal([]server.Answer{{Tuple: []string{"a", "b"}, Freq: freq}})
		if err != nil {
			t.Fatal(err)
		}
		d, err := answerDigest("KLM", raw)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if digest(0.5) == digest(math.Nextafter(0.5, 1)) {
		t.Fatal("digest ignores a one-ulp change")
	}

	cfg := tinyConfig(t, "serve")
	env, err := setupServe(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := env.load(cfg, nil)
	env.close()
	if problems := env.checkResponses(recs); len(problems) != 0 {
		t.Fatalf("honest responses failed the check: %v", problems)
	}
	recs[len(recs)-1].digest ^= 1
	if problems := env.checkResponses(recs); len(problems) == 0 {
		t.Fatal("doctored response passed the check")
	}
}

// TestPrepCheckTripsOnDoctoredDecode checks that sameSet notices a
// decoded set that differs from the build.
func TestPrepCheckTripsOnDoctoredDecode(t *testing.T) {
	cfg := tinyConfig(t, "prep")
	pairs, err := setupPrep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport("prep")
	p := prepRound(rep, pairs[:1], nil, nil)
	if len(rep.problems) != 0 {
		t.Fatalf("round trip failed: %v", rep.problems)
	}
	a, err := syncache.DecodeBytes(p.encoded[0])
	if err != nil {
		t.Fatal(err)
	}
	b, _ := syncache.DecodeBytes(p.encoded[0])
	if msg := sameSet(a, b); msg != "" {
		t.Fatalf("equal sets differ: %s", msg)
	}
	b.Entries[0].Pair.BlockSizes[0]++
	if sameSet(a, b) == "" {
		t.Fatal("a changed block size went unnoticed")
	}
}
