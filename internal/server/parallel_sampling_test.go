package server

import (
	"encoding/json"
	"net/http"
	"testing"

	"cqabench/internal/obs"
)

// TestParallelSamplingEndpoint covers the sampling_workers request
// field end to end: invalid values are a 400, sequential requests
// report workers=1 and no chunks, parallel requests report the pool and
// a positive chunk count (feeding estimator_chunks_total), and parallel
// results are identical for every pool size.
func TestParallelSamplingEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{Instances: defaultInstance(smallDB(t)), Workers: 2, Registry: reg})
	url := ts.URL + "/v1/estimate"

	status, body, _ := post(t, url,
		`{"query": "Q() :- Employee(1, n1, d), Employee(2, n2, d)", "scheme": "KLM", "sampling_workers": -2}`)
	if status != http.StatusBadRequest {
		t.Fatalf("sampling_workers=-2: status = %d, want 400 (%s)", status, body)
	}
	var e ErrorEnvelope
	if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error.Code != "invalid_options" {
		t.Fatalf("sampling_workers=-2: code = %q (%v)", e.Error.Code, err)
	}

	decode := func(workers int) EstimateResponse {
		t.Helper()
		req := `{"query": "Q() :- Employee(1, n1, d), Employee(2, n2, d)", "scheme": "KLM", "seed": 9`
		if workers != 0 {
			req += `, "sampling_workers": ` + string(rune('0'+workers))
		}
		req += `}`
		status, body, _ := post(t, url, req)
		if status != http.StatusOK {
			t.Fatalf("workers=%d: status = %d: %s", workers, status, body)
		}
		var resp EstimateResponse
		if err := json.Unmarshal([]byte(body), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	seq := decode(0)
	if seq.Stats.SamplingWorkers != 1 || seq.Stats.Chunks != 0 {
		t.Fatalf("sequential stats = %+v, want sampling_workers=1 chunks=0", seq.Stats)
	}

	par2 := decode(2)
	if par2.Stats.SamplingWorkers != 2 || par2.Stats.Chunks <= 0 {
		t.Fatalf("parallel stats = %+v, want sampling_workers=2 chunks>0", par2.Stats)
	}
	par4 := decode(4)
	if par4.Stats.SamplingWorkers != 4 {
		t.Fatalf("parallel stats = %+v, want sampling_workers=4", par4.Stats)
	}
	// Worker invariance through the API: same seed, different pools.
	if par2.Answers[0].Freq != par4.Answers[0].Freq ||
		par2.Stats.Samples != par4.Stats.Samples ||
		par2.Stats.Chunks != par4.Stats.Chunks {
		t.Fatalf("pool sizes diverge: %+v vs %+v", par2.Stats, par4.Stats)
	}

	if got := reg.Counter("estimator_chunks_total", obs.L("instance", "default")).Value(); got != par2.Stats.Chunks+par4.Stats.Chunks {
		t.Fatalf("estimator_chunks_total = %d, want %d", got, par2.Stats.Chunks+par4.Stats.Chunks)
	}
}

// TestParallelSamplingServerDefault pins the -sampling-workers default
// path: Config.SamplingWorkers applies when the request leaves the
// field unset, an explicit 1 opts back into sequential mode, and the
// estimator_sampling_workers gauge reports the resolved default pool.
func TestParallelSamplingServerDefault(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{Instances: defaultInstance(smallDB(t)), Workers: 2, SamplingWorkers: 3, Registry: reg})
	url := ts.URL + "/v1/estimate"

	if got := reg.Gauge("estimator_sampling_workers").Value(); got != 3 {
		t.Fatalf("estimator_sampling_workers = %v, want 3", got)
	}

	_, body, _ := post(t, url, `{"query": "Q() :- Employee(1, n1, d), Employee(2, n2, d)", "scheme": "KLM", "seed": 9}`)
	var resp EstimateResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Stats.SamplingWorkers != 3 || resp.Stats.Chunks <= 0 {
		t.Fatalf("default-path stats = %+v, want sampling_workers=3 chunks>0", resp.Stats)
	}

	_, body, _ = post(t, url, `{"query": "Q() :- Employee(1, n1, d), Employee(2, n2, d)", "scheme": "KLM", "seed": 9, "sampling_workers": 1}`)
	var seq EstimateResponse
	if err := json.Unmarshal([]byte(body), &seq); err != nil {
		t.Fatal(err)
	}
	if seq.Stats.SamplingWorkers != 1 || seq.Stats.Chunks != 0 {
		t.Fatalf("explicit sequential stats = %+v, want sampling_workers=1 chunks=0", seq.Stats)
	}

	if _, err := New(Config{Instances: defaultInstance(smallDB(t)), SamplingWorkers: -2}); err == nil {
		t.Fatal("Config.SamplingWorkers=-2 accepted")
	}
}
