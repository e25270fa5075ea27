package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics an untraced run prints, on every workload.
// Each workload defines its pass (README.md): estimate runs every scheme
// over every pair, prep prepares every pair, serve completes a batch of
// requests.
var endToEnd = []metricDef{
	{"setup_s", "s"},      // median of the run's set-ups, seed to ready
	{"pass_s", "s"},       // wall time of one pass
	{"mem_peak_mb", "MB"}, // largest live Go heap after a pass
	{"ok_frac", "ratio"},  // operations that succeeded ÷ attempted
}

// schemeNames are the sequential scheme labels of the estimate workload.
var schemeNames = []string{"Natural", "KL", "KLM", "Cover"}

// perLayer are the metrics a traced run prints, on every workload; a
// layer the workload does not exercise reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"relation.blocks_s", "s"},
		{"engine.enum_s", "s"},
		{"engine.homs", "count"},
		{"engine.homs_per_pair", "count"},
		{"engine.ns_per_hom", "ns"},
		{"synopsis.build_s", "s"},
		{"synopsis.self_s", "s"},
		{"synopsis.images", "count"},
		{"synopsis.ns_per_image", "ns"},
		{"syncache.encode_s", "s"},
		{"syncache.decode_s", "s"},
		{"syncache.bytes_per_image", "B"},
	}
	for _, stage := range []string{"sampler_init", "estimate", "other"} {
		for _, s := range schemeNames {
			defs = append(defs, metricDef{"cqa.stage_s." + stage + "." + s, "s"})
		}
	}
	defs = append(defs, metricDef{"cqa.rel_err_p95", "ratio"})
	for _, s := range schemeNames {
		defs = append(defs, metricDef{"sampler.init_ns_per_tuple." + s, "ns"})
	}
	for _, s := range schemeNames {
		defs = append(defs, metricDef{"sampler.ns_per_draw." + s, "ns"})
	}
	defs = append(defs,
		metricDef{"sampler.indexed_share", "ratio"},
		metricDef{"sampler.checks_per_draw.Cover", "count"},
		metricDef{"mt.intn_per_draw", "count"},
		metricDef{"mt.singleton_block_share", "ratio"},
		metricDef{"mt.intn_ns", "ns"},
	)
	for _, s := range schemeNames {
		defs = append(defs, metricDef{"estimator.draws." + s, "count"})
	}
	for _, phase := range []string{"stop", "var", "final"} {
		for _, s := range schemeNames[:3] {
			defs = append(defs, metricDef{"estimator.phase_draws." + phase + "." + s, "count"})
		}
	}
	for _, s := range schemeNames {
		defs = append(defs, metricDef{"estimator.self_s." + s, "s"})
	}
	defs = append(defs,
		metricDef{"estimator.chunks", "count"},
		metricDef{"estimator.pool_ns_per_draw", "ns"},
		metricDef{"server.queue_wait_ms.p50", "ms"},
		metricDef{"server.queue_wait_ms.p99", "ms"},
		metricDef{"server.prep_ms.lru", "ms"},
		metricDef{"server.prep_ms.load", "ms"},
		metricDef{"server.prep_ms.build", "ms"},
		metricDef{"server.estimate_ms.p50", "ms"},
		metricDef{"server.estimate_ms.p99", "ms"},
		metricDef{"server.overhead_ms.p50", "ms"},
		metricDef{"server.lru_hit_ratio", "ratio"},
		metricDef{"server.reload_ratio", "ratio"},
		metricDef{"server.build_ratio", "ratio"},
		metricDef{"server.coalesced_ratio", "ratio"},
		metricDef{"server.reject_ratio", "ratio"},
		metricDef{"server.resp_bytes", "B"},
		metricDef{"server.working_set_bytes", "B"},
		metricDef{"server.lru_budget_bytes", "B"},
	)
	for _, w := range []string{"estimate", "prep", "serve"} {
		defs = append(defs, metricDef{"obs.trace_overhead." + w, "s"})
	}
	return defs
}

// report collects one run's measurements and check outcomes.
type report struct {
	workload  string
	attempted int64
	failed    int64
	problems  []string
	values    map[string]float64
	// named lists the workload's own metrics, such as answer_s.KL or
	// serve_rps, printed as text lines before the result.
	named []metricDef
}

func newReport(workload string) *report {
	return &report{workload: workload, values: make(map[string]float64)}
}

// set records a metric value.
func (r *report) set(name string, v float64) { r.values[name] = v }

// setNamed records one of the workload's own metrics.
func (r *report) setNamed(name, unit string, v float64) {
	r.values[name] = v
	r.named = append(r.named, metricDef{name, unit})
}

// check records a failed check unless ok holds.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// op counts one attempted operation and whether it failed. A failure is
// counted, not a failed check: ok_frac carries it. The first few errors
// are logged to standard error.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 5 {
			fmt.Fprintf(os.Stderr, "cqaperf: %s: operation failed: %v\n", r.workload, err)
		}
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the final line, with every end-to-end metric
// (untraced) or every per-layer metric (traced), and the failed checks.
// A missing end-to-end metric or a value that is not a finite number
// fails the run.
func (r *report) result(traced bool) (resultLine, []string) {
	problems := append([]string(nil), r.problems...)
	if r.attempted > 0 {
		r.values["ok_frac"] = float64(r.attempted-r.failed) / float64(r.attempted)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	m := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !traced {
			problems = append(problems, "metric "+d.name+" was not measured")
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			problems = append(problems, fmt.Sprintf("metric %s is %v", d.name, v))
			v = 0
		}
		m[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if r.attempted < 1 {
		problems = append(problems, "no operation was attempted")
	}
	return resultLine{
		Correct:   len(problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   m,
	}, problems
}

// printNamed writes the workload's own metrics, one per line.
func (r *report) printNamed(w io.Writer, cfg config) {
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	for _, d := range r.named {
		fmt.Fprintf(w, "%s seed=%d %s: %s = %.6g %s\n", cfg.workload, cfg.seed, mode, d.name, r.values[d.name], d.unit)
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

// derive maps the workload seed and a label to an independent non-zero
// seed (splitmix64 of seed ^ FNV-1a(label)).
func derive(seed uint64, label string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	z := seed ^ h.Sum64()
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// residentMB runs full collections and returns the live Go heap in MB
// (10^6 bytes): the memory the workload keeps, without the garbage
// awaiting collection, so the figure does not depend on when
// collections happen to run. It collects twice: objects parked in
// sync.Pool caches survive the first collection.
func residentMB() float64 {
	runtime.GC()
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64()) / 1e6
}

// timedSetups runs setup n times, keeps the last result and returns the
// median set-up time. Earlier results are released through discard.
func timedSetups[T any](n int, setup func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	var times []float64
	for i := 0; i < n; i++ {
		if i > 0 && discard != nil {
			discard(last)
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	return last, median(times), nil
}

// setupRepeats is how many times an untraced run sets up, so setup_s is
// a median; traced runs set up once.
func setupRepeats(cfg config) int {
	if cfg.trace || cfg.tiny {
		return 1
	}
	return 5
}

// measure runs pass for the measured phase: at least once, and no
// further pass once the next would likely end more than half a pass
// past cfg.seconds. A traced run alternates an untraced and a traced
// pass, at least one of each, so their difference is the tracing
// overhead. Every pass ends with a full collection, so the next starts
// from a collected heap; measure returns the largest live heap those
// collections found.
func measure(cfg config, pass func(withSpans bool)) (memPeakMB float64) {
	runtime.GC()
	start := time.Now()
	var last time.Duration
	for n := 0; ; n++ {
		forced := n == 0 || (cfg.trace && n == 1)
		if !forced && time.Since(start)+last/2 >= cfg.seconds {
			return memPeakMB
		}
		t0 := time.Now()
		pass(cfg.trace && n%2 == 1)
		last = time.Since(t0)
		memPeakMB = max(memPeakMB, residentMB())
	}
}
