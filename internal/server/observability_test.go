package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"cqabench/internal/obs"
)

func get(t testing.TB, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// Opting into convergence returns per-tuple trajectories in the response
// and keeps them retrievable from the debug ring; requests without the
// flag carry none.
func TestEstimateConvergenceOptIn(t *testing.T) {
	_, ts := newTestServer(t, Config{Instances: defaultInstance(smallDB(t)), Workers: 2})
	status, body, _ := post(t, ts.URL+"/v1/estimate",
		`{"query": "Q(n) :- Employee(i, n, d)", "scheme": "KLM", "convergence": true}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	var resp EstimateResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Convergence) == 0 {
		t.Fatal("convergence requested but response has no trajectories")
	}
	if len(resp.Convergence) > maxConvergenceTuples {
		t.Fatalf("%d trajectories exceed the service cap %d", len(resp.Convergence), maxConvergenceTuples)
	}
	for _, tr := range resp.Convergence {
		if len(tr.Points) == 0 {
			t.Fatalf("tuple %d: empty trajectory", tr.Tuple)
		}
		last := tr.Points[len(tr.Points)-1]
		if last.Progress != 1 {
			t.Fatalf("tuple %d: final point progress = %v, want 1", tr.Tuple, last.Progress)
		}
	}

	// The debug endpoint replays the same trajectories by trace ID.
	dstatus, dbody := get(t, ts.URL+"/debug/requests/"+resp.Stats.TraceID+"/convergence")
	if dstatus != http.StatusOK {
		t.Fatalf("debug convergence status = %d: %s", dstatus, dbody)
	}
	var dresp ConvergenceResponse
	if err := json.Unmarshal([]byte(dbody), &dresp); err != nil {
		t.Fatal(err)
	}
	if dresp.TraceID != resp.Stats.TraceID || dresp.Scheme != "KLM" {
		t.Fatalf("debug record mismatch: %+v", dresp)
	}
	if len(dresp.Convergence) != len(resp.Convergence) {
		t.Fatalf("debug holds %d trajectories, response had %d", len(dresp.Convergence), len(resp.Convergence))
	}

	// Without the opt-in the response is trajectory-free and the debug
	// endpoint distinguishes "recorded nothing" from "unknown request".
	_, body, _ = post(t, ts.URL+"/v1/estimate",
		`{"query": "Q(n) :- Employee(i, n, d)", "scheme": "KLM"}`)
	var plain EstimateResponse
	if err := json.Unmarshal([]byte(body), &plain); err != nil {
		t.Fatal(err)
	}
	if plain.Convergence != nil {
		t.Fatalf("unrequested convergence in response: %+v", plain.Convergence)
	}
	dstatus, dbody = get(t, ts.URL+"/debug/requests/"+plain.Stats.TraceID+"/convergence")
	if dstatus != http.StatusNotFound {
		t.Fatalf("no-convergence lookup = %d, want 404", dstatus)
	}
	var e ErrorEnvelope
	if err := json.Unmarshal([]byte(dbody), &e); err != nil || e.Error.Code != "no_convergence" {
		t.Fatalf("no-convergence code = %q (%s)", e.Error.Code, dbody)
	}
	dstatus, dbody = get(t, ts.URL+"/debug/requests/tr_nonexistent/convergence")
	if dstatus != http.StatusNotFound {
		t.Fatalf("unknown-id lookup = %d, want 404", dstatus)
	}
	if err := json.Unmarshal([]byte(dbody), &e); err != nil || e.Error.Code != "not_found" {
		t.Fatalf("unknown-id code = %q (%s)", e.Error.Code, dbody)
	}
}

// convergence_points is clamped to the service cap, and negative values
// are rejected like any other invalid option.
func TestConvergencePointsBounds(t *testing.T) {
	_, ts := newTestServer(t, Config{Instances: defaultInstance(smallDB(t)), Workers: 2})
	status, body, _ := post(t, ts.URL+"/v1/estimate",
		`{"query": "Q(n) :- Employee(i, n, d)", "scheme": "KLM", "convergence": true, "convergence_points": 1000000}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	var resp EstimateResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	for _, tr := range resp.Convergence {
		if len(tr.Points) > maxConvergencePoints {
			t.Fatalf("tuple %d: %d points exceed the cap %d", tr.Tuple, len(tr.Points), maxConvergencePoints)
		}
	}
	status, body, _ = post(t, ts.URL+"/v1/estimate",
		`{"query": "Q(n) :- Employee(i, n, d)", "convergence": true, "convergence_points": -1}`)
	if status != http.StatusBadRequest {
		t.Fatalf("negative convergence_points = %d (%s), want 400", status, body)
	}
}

// /debug/pprof/ is absent by default and mounted with Config.EnablePprof.
func TestPprofGatedByConfig(t *testing.T) {
	_, off := newTestServer(t, Config{Instances: defaultInstance(smallDB(t)), Workers: 1})
	if status, _ := get(t, off.URL+"/debug/pprof/"); status != http.StatusNotFound {
		t.Fatalf("pprof without opt-in = %d, want 404", status)
	}
	_, on := newTestServer(t, Config{Instances: defaultInstance(smallDB(t)), Workers: 1, EnablePprof: true})
	status, body := get(t, on.URL+"/debug/pprof/")
	if status != http.StatusOK || !bytes.Contains([]byte(body), []byte("goroutine")) {
		t.Fatalf("pprof index = %d:\n%s", status, body)
	}
	if status, _ := get(t, on.URL+"/debug/pprof/cmdline"); status != http.StatusOK {
		t.Fatalf("pprof cmdline = %d", status)
	}
}

// Every scrape refreshes server_uptime_seconds, and server_build_info
// carries the manifest identity as labels with a constant value of 1.
func TestUptimeAndBuildInfoGauges(t *testing.T) {
	s, ts := newTestServer(t, Config{Instances: defaultInstance(smallDB(t)), Workers: 1})
	_, body := get(t, ts.URL+"/metrics")
	for _, want := range []string{"server_uptime_seconds", "server_build_info", "go_version"} {
		if !bytes.Contains([]byte(body), []byte(want)) {
			t.Fatalf("metrics exposition missing %s:\n%s", want, body)
		}
	}
	first := s.Registry().Gauge("server_uptime_seconds").Value()
	if first < 0 {
		t.Fatalf("uptime = %v, want >= 0", first)
	}
	get(t, ts.URL+"/metrics.json")
	if second := s.Registry().Gauge("server_uptime_seconds").Value(); second < first {
		t.Fatalf("uptime went backwards: %v -> %v", first, second)
	}
	sha := s.manifest.GitSHA
	if sha == "" {
		sha = "unknown"
	}
	info := s.Registry().Gauge("server_build_info",
		obs.L("git_sha", sha), obs.L("go_version", s.manifest.GoVersion))
	if info.Value() != 1 {
		t.Fatalf("server_build_info = %v, want 1", info.Value())
	}
}
