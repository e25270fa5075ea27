package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cqabench/internal/obs"
	"cqabench/internal/obs/trace"
)

// getJSON fetches url and decodes the body into v, failing the test on
// transport errors; returns the status code and raw body.
func getJSON(t testing.TB, url string, v any) (int, []byte) {
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
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(b, v); err != nil {
			t.Fatalf("decoding %s: %v\n%s", url, err, b)
		}
	}
	return resp.StatusCode, b
}

func TestTraceIDEchoAndRequestLog(t *testing.T) {
	_, ts := newTestServer(t, Config{Instances: defaultInstance(smallDB(t)), Workers: 2})

	const reqID = "tracing-test.42"
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/estimate",
		strings.NewReader(`{"query": "Q() :- Employee(1, 'Bob', d)", "scheme": "Natural"}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate = %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Trace-ID"); got != reqID {
		t.Fatalf("X-Trace-ID = %q, want inbound X-Request-ID %q", got, reqID)
	}
	var er struct {
		Stats EstimateStats `json:"stats"`
	}
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Stats.TraceID != reqID {
		t.Fatalf("stats.trace_id = %q, want %q", er.Stats.TraceID, reqID)
	}

	// The request must appear in the inspector with a stage breakdown.
	var dr DebugRequestsResponse
	if code, b := getJSON(t, ts.URL+"/debug/requests", &dr); code != http.StatusOK {
		t.Fatalf("/debug/requests = %d: %s", code, b)
	}
	var rec *RequestRecord
	for i := range dr.Requests {
		if dr.Requests[i].TraceID == reqID {
			rec = &dr.Requests[i]
		}
	}
	if rec == nil {
		t.Fatalf("trace id %q not in /debug/requests: %+v", reqID, dr.Requests)
	}
	if rec.Endpoint != "/v1/estimate" || rec.Status != http.StatusOK {
		t.Fatalf("record = %+v", rec)
	}
	if rec.Scheme == "" || rec.Samples <= 0 {
		t.Fatalf("record missing estimator stats: %+v", rec)
	}
	if rec.LatencyMS <= 0 {
		t.Fatalf("latency_ms = %v, want > 0", rec.LatencyMS)
	}
	var estimateMS float64
	for _, st := range rec.Stages {
		if st.Name == "estimate" {
			estimateMS = st.DurMS
		}
	}
	if estimateMS <= 0 {
		t.Fatalf("stage breakdown has no nonzero estimate stage: %+v", rec.Stages)
	}
}

func TestMalformedRequestIDReplaced(t *testing.T) {
	_, ts := newTestServer(t, Config{Instances: defaultInstance(smallDB(t)), Workers: 1})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/estimate",
		strings.NewReader(`{"query": "Q() :- Employee(1, 'Bob', d)", "scheme": "Natural"}`))
	req.Header.Set("X-Request-ID", "bad id with spaces")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	got := resp.Header.Get("X-Trace-ID")
	if got == "" || got == "bad id with spaces" || !obs.IsValidTraceID(got) {
		t.Fatalf("X-Trace-ID = %q, want a fresh generated id", got)
	}
}

func TestDebugRequestTraceSpanTree(t *testing.T) {
	_, ts := newTestServer(t, Config{Instances: defaultInstance(smallDB(t)), Workers: 2})

	const reqID = "span-tree-test"
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/estimate",
		strings.NewReader(`{"query": "Q() :- Employee(1, n, d)", "scheme": "KL", "eps": 0.05}`))
	req.Header.Set("X-Request-ID", reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate = %d", resp.StatusCode)
	}

	var f trace.File
	if code, b := getJSON(t, ts.URL+"/debug/requests/"+reqID+"/trace", &f); code != http.StatusOK {
		t.Fatalf("trace fetch = %d: %s", code, b)
	}
	// Span names repeat across levels (the server's "estimate" child vs
	// the estimator's internal "estimate" stage), so keep the shallowest.
	depth := map[string]float64{}
	for _, ev := range f.TraceEvents {
		if ev.Phase != "X" {
			t.Fatalf("unexpected phase %q in %+v", ev.Phase, ev)
		}
		d, _ := ev.Args["depth"].(float64)
		if old, ok := depth[ev.Name]; !ok || d < old {
			depth[ev.Name] = d
		}
	}
	if d, ok := depth["server./v1/estimate"]; !ok || d != 0 {
		t.Fatalf("missing root span server./v1/estimate (events: %v)", depth)
	}
	for _, child := range []string{"queue.wait", "estimate"} {
		if d, ok := depth[child]; !ok || d != 1 {
			t.Fatalf("span %q missing or not a direct child (depth %v, ok=%v); tree: %v",
				child, d, ok, depth)
		}
	}
	if d, ok := depth["cqa.KL"]; !ok || d != 2 {
		t.Fatalf("estimator span cqa.KL missing or misplaced (depth %v, ok=%v): %v", d, ok, depth)
	}
	if f.Metadata["manifest"] == nil {
		t.Fatal("trace metadata missing run manifest")
	}

	// Unknown trace IDs are a clean 404.
	code, b := getJSON(t, ts.URL+"/debug/requests/no-such-id/trace", nil)
	if code != http.StatusNotFound || !strings.Contains(string(b), "not_found") {
		t.Fatalf("unknown trace = %d: %s", code, b)
	}
}

func TestDebugRequestsFilters(t *testing.T) {
	_, ts := newTestServer(t, Config{Instances: defaultInstance(smallDB(t)), Workers: 2})
	post(t, ts.URL+"/v1/estimate", `{"query": "Q() :- Employee(1, 'Bob', d)", "scheme": "Natural"}`)
	post(t, ts.URL+"/v1/estimate", `{"query": "not a query"}`)

	var dr DebugRequestsResponse
	if code, b := getJSON(t, ts.URL+"/debug/requests?errors=true", &dr); code != http.StatusOK {
		t.Fatalf("errors filter = %d: %s", code, b)
	}
	if len(dr.Requests) != 1 || dr.Requests[0].Reason == "" {
		t.Fatalf("errors=true = %+v, want exactly the failed parse", dr.Requests)
	}

	dr = DebugRequestsResponse{}
	if code, _ := getJSON(t, ts.URL+"/debug/requests?n=1&sort=slow", &dr); code != http.StatusOK || len(dr.Requests) != 1 {
		t.Fatalf("n=1 returned %d records (code %d)", len(dr.Requests), code)
	}

	// min_ms far above any test latency filters everything out, as [].
	dr = DebugRequestsResponse{}
	if _, b := getJSON(t, ts.URL+"/debug/requests?min_ms=100000", &dr); len(dr.Requests) != 0 || !strings.Contains(string(b), `"requests": []`) && !strings.Contains(string(b), `"requests":[]`) {
		t.Fatalf("min_ms filter: %s", b)
	}

	for _, bad := range []string{"n=0", "n=x", "min_ms=-1", "errors=maybe", "sort=wat"} {
		if code, _ := getJSON(t, ts.URL+"/debug/requests?"+bad, nil); code != http.StatusBadRequest {
			t.Fatalf("?%s = %d, want 400", bad, code)
		}
	}
}

func TestVersionAndMetricsJSONEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Config{Instances: defaultInstance(smallDB(t)), Workers: 1})

	var m struct {
		Tool      string `json:"tool"`
		GoVersion string `json:"go_version"`
		PID       int    `json:"pid"`
	}
	if code, b := getJSON(t, ts.URL+"/version", &m); code != http.StatusOK {
		t.Fatalf("/version = %d: %s", code, b)
	}
	if m.Tool == "" || m.GoVersion == "" || m.PID == 0 {
		t.Fatalf("manifest incomplete: %+v", m)
	}

	post(t, ts.URL+"/v1/estimate", `{"query": "Q() :- Employee(1, 'Bob', d)", "scheme": "Natural"}`)
	var env struct {
		Manifest json.RawMessage `json:"manifest"`
		Metrics  json.RawMessage `json:"metrics"`
	}
	if code, b := getJSON(t, ts.URL+"/metrics.json", &env); code != http.StatusOK {
		t.Fatalf("/metrics.json = %d: %s", code, b)
	}
	if len(env.Manifest) == 0 {
		t.Fatal("/metrics.json envelope missing manifest")
	}
	if !strings.Contains(string(env.Metrics), "server_requests_total") {
		t.Fatalf("metrics payload missing server_requests_total: %s", env.Metrics)
	}
	if !strings.Contains(string(env.Metrics), `"window"`) {
		t.Fatalf("metrics payload missing windowed series: %s", env.Metrics)
	}
}

// promValue extracts the value of the exposition line starting with
// prefix, or -1 when the line is absent.
func promValue(t testing.TB, exposition, prefix string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		var v float64
		rest := strings.TrimSpace(line[len(prefix):])
		if _, err := json.Number(rest).Float64(); err == nil {
			v, _ = json.Number(rest).Float64()
			return v
		}
		t.Fatalf("unparsable exposition line %q", line)
	}
	return -1
}

func TestWindowedLatencyExportsAndDrains(t *testing.T) {
	s, ts := newTestServer(t, Config{Instances: defaultInstance(smallDB(t)), Workers: 1})

	// Pin the window ring to a controllable clock. The ring is the one
	// New() registered; re-registering returns it, not a fresh one.
	var now atomic.Int64
	base := time.Now()
	now.Store(0)
	wh := s.reg.WindowedHistogram("server_request_seconds", nil,
		obs.L("endpoint", "/v1/estimate"), obs.L("instance", "default"))
	wh.SetNowFunc(func() time.Time { return base.Add(time.Duration(now.Load())) })

	post(t, ts.URL+"/v1/estimate", `{"query": "Q() :- Employee(1, 'Bob', d)", "scheme": "Natural"}`)

	fetch := func() string {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}

	const p99 = `server_request_seconds_window{endpoint="/v1/estimate",instance="default",quantile="0.99",window="1m"} `
	const cnt = `server_request_seconds_window_count{endpoint="/v1/estimate",instance="default",window="1m"} `
	exp := fetch()
	if v := promValue(t, exp, p99); v <= 0 {
		t.Fatalf("windowed p99 = %v, want > 0; exposition:\n%s", v, exp)
	}
	if v := promValue(t, exp, cnt); v != 1 {
		t.Fatalf("windowed count = %v, want 1", v)
	}

	// Once the window elapses with no new traffic the quantile drains to
	// zero — the SLO series reflects current behavior, not history.
	now.Store(int64(2 * time.Minute))
	exp = fetch()
	if v := promValue(t, exp, p99); v != 0 {
		t.Fatalf("windowed p99 after window elapsed = %v, want 0", v)
	}
	if v := promValue(t, exp, cnt); v != 0 {
		t.Fatalf("windowed count after window elapsed = %v, want 0", v)
	}

	// The cumulative histogram keeps the observation.
	if v := promValue(t, exp, `server_request_seconds_count{endpoint="/v1/estimate",instance="default"} `); v != 1 {
		t.Fatalf("cumulative count = %v, want 1", v)
	}
}

func TestQueueWaitMetricAndRejectReasons(t *testing.T) {
	s, ts := newTestServer(t, Config{Instances: defaultInstance(smallDB(t)), Workers: 1})
	post(t, ts.URL+"/v1/estimate", `{"query": "Q() :- Employee(1, 'Bob', d)", "scheme": "Natural"}`)
	snap := s.reg.Histogram("server_queue_wait_seconds",
		obs.L("endpoint", "/v1/estimate"), obs.L("instance", "default")).Snapshot()
	if snap.Count != 1 {
		t.Fatalf("queue wait observations = %d, want 1", snap.Count)
	}

	// A malformed body is recorded with its reject reason.
	post(t, ts.URL+"/v1/estimate", `{"query": `)
	var dr DebugRequestsResponse
	getJSON(t, ts.URL+"/debug/requests?errors=1&n=1", &dr)
	if len(dr.Requests) != 1 || dr.Requests[0].Reason != "bad_request" {
		t.Fatalf("reject reason = %+v, want bad_request", dr.Requests)
	}
}
