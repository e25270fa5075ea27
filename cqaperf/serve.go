package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"cqabench/internal/cqa"
	"cqabench/internal/mt"
	"cqabench/internal/obs/manifest"
	"cqabench/internal/relation"
	"cqabench/internal/scenario"
	"cqabench/internal/server"
	"cqabench/internal/syncache"
	"cqabench/internal/synopsis"
)

// The serve workload runs the estimation service in-process and loads
// it with nproc closed-loop HTTP clients posting /v1/estimate. The
// instances are the noisy databases of a smoke-scale Lab, each asked a
// Boolean and a balanced query; popularity is Zipf-skewed, most requests
// use the auto scheme, and seeds come from a small set so identical
// concurrent requests can coalesce. Each client deals its requests from
// a shuffled deck holding the exact mix, so the workload seed changes
// the order of the requests but not their mix. The server has fewer worker slots
// than clients, so requests queue under the DRR scheduler, and its
// resident-synopsis budget is half the working set, so a steady share of
// requests evicts and reloads from the attached syncache directory.
const (
	// serveLabSeed pins the instance data, as estLabSeed does; the
	// request stream comes from the workload seed.
	serveLabSeed = 1
	serveSF      = 0.0005
	// serveBalance is the balance level of each instance's second query.
	serveBalance = 0.5
	// serveZipf is the exponent of query popularity.
	serveZipf = 1.1
	// serveExplicit is the share of requests on balanced queries that
	// name a scheme instead of auto.
	serveExplicit = 0.2
	// serveSeeds is the number of distinct request seeds.
	serveSeeds = 3
	// serveDeck is the length of one cycle of the request stream.
	serveDeck = 200
)

// serveExplicitSchemes are the schemes named by explicit requests.
var serveExplicitSchemes = []string{"KL", "KLM", "Cover"}

// serveCombo is one (instance, query) the clients ask for.
type serveCombo struct {
	instance string
	query    string
	boolean  bool
	db       *relation.Database
	set      *synopsis.Set // the benchmark's own build, for checks
}

type serveEnv struct {
	srv        *server.Server
	url        string
	cacheDir   string
	combos     []serveCombo
	workingSet int64
	budget     int64
	seeds      []uint64
	batch      int // completed requests in one pass
}

// setupServe generates the instances and their queries, builds every
// synopsis once to size the working set, starts the server with half of
// it as the LRU budget, and warms the synopsis cache with one request
// per (instance, query), so the measured phase only reuses or reloads.
func setupServe(cfg config, k int) (*serveEnv, error) {
	labCfg := scenario.DefaultConfig()
	labCfg.ScaleFactor = serveSF
	labCfg.Seed = serveLabSeed
	labCfg.QueriesPerJoin = 2
	type inst struct {
		i int
		p float64
	}
	insts := []inst{{0, 0.2}, {0, 0.5}, {0, 0.8}, {1, 0.2}, {1, 0.5}, {1, 0.8}}
	if cfg.tiny {
		labCfg.ScaleFactor = estSF
		labCfg.QueriesPerJoin = 1
		insts = insts[:1]
	}
	lab, err := scenario.NewLab(labCfg)
	if err != nil {
		return nil, err
	}
	env := &serveEnv{batch: 128}
	if cfg.tiny {
		env.batch = 16
	}
	for s := 0; s < serveSeeds; s++ {
		env.seeds = append(env.seeds, derive(cfg.seed, fmt.Sprintf("serve/seed/%d", s)))
	}
	// Combos are listed Boolean queries first: the popularity order puts
	// the cheap Natural-answered queries at the top ranks.
	var instances []server.InstanceConfig
	var balanced []serveCombo
	for _, in := range insts {
		name := fmt.Sprintf("j1-q%d-p%02.0f", in.i, in.p*100)
		db, err := lab.NoisyDB(1, in.i, in.p)
		if err != nil {
			return nil, err
		}
		instances = append(instances, server.InstanceConfig{
			Name:      name,
			DB:        db,
			KeyPrefix: fmt.Sprintf("cqaperf/serve/%s/%s", labCfg.Fingerprint(), name),
		})
		for _, target := range []float64{0, serveBalance} {
			q, _, err := lab.BalancedQuery(1, in.i, in.p, target)
			if err != nil {
				return nil, err
			}
			set, err := synopsis.Build(db, q)
			if err != nil {
				return nil, err
			}
			env.workingSet += int64(syncache.EncodedSize(set))
			c := serveCombo{instance: name, query: q.Render(db.Dict), boolean: target == 0, db: db, set: set}
			if c.boolean {
				env.combos = append(env.combos, c)
			} else {
				balanced = append(balanced, c)
			}
		}
	}
	env.combos = append(env.combos, balanced...)
	env.budget = env.workingSet / 2
	env.cacheDir = filepath.Join(cfg.out, "serve-cache", fmt.Sprintf("%d-%d", os.Getpid(), k))
	if err := os.RemoveAll(env.cacheDir); err != nil {
		return nil, err
	}
	cache, err := syncache.Open(env.cacheDir, syncache.ModeReadWrite)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{
		Instances:         instances,
		SynopsisMemBudget: env.budget,
		Workers:           max(1, runtime.NumCPU()-1),
		Cache:             cache,
		Manifest:          &manifest.RunManifest{Tool: "cqaperf serve"},
	})
	if err != nil {
		return nil, err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	env.srv, env.url = srv, "http://"+addr+"/v1/estimate"
	client := newServeClient()
	defer client.CloseIdleConnections()
	for ci := range env.combos {
		rec := env.post(client, serveRequest{combo: ci, scheme: "auto", seed: env.seeds[0]}, nil)
		if rec.err != nil || rec.status != http.StatusOK {
			env.close()
			return nil, fmt.Errorf("warm-up request %d: status %d: %v", ci, rec.status, rec.err)
		}
	}
	return env, nil
}

// close stops the server and removes its synopsis cache.
func (env *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := env.srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "cqaperf: serve: shutdown: %v\n", err)
	}
	if err := os.RemoveAll(env.cacheDir); err != nil {
		fmt.Fprintf(os.Stderr, "cqaperf: serve: %v\n", err)
	}
}

func newServeClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
		Timeout:   2 * time.Minute,
	}
}

// serveRequest is one request of the stream.
type serveRequest struct {
	combo  int
	scheme string
	seed   uint64
}

// serveRecord is what the client keeps of one request: timing, status,
// the server's own stats, and a digest of the answer for the check.
type serveRecord struct {
	req       serveRequest
	done      time.Time
	latency   time.Duration
	status    int
	err       error
	bytes     int
	synopsis  string
	coalesced bool
	stats     server.EstimateStats
	digest    uint64
}

// post sends one estimate request and times it from send to body read.
func (env *serveEnv) post(client *http.Client, r serveRequest, op *span) serveRecord {
	c := env.combos[r.combo]
	// Marshalling a struct of strings and numbers cannot fail.
	body, _ := json.Marshal(server.EstimateRequest{Instance: c.instance, Query: c.query, Scheme: r.scheme, Seed: r.seed})
	rec := serveRecord{req: r}
	sp := op.call("http.post /v1/estimate")
	t0 := time.Now()
	resp, err := client.Post(env.url, "application/json", bytes.NewReader(body))
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		rec.status = resp.StatusCode
	}
	rec.done = time.Now()
	rec.latency = rec.done.Sub(t0)
	sp.done()
	rec.err, rec.bytes = err, len(data)
	if err != nil || rec.status != http.StatusOK {
		return rec
	}
	sp = op.call("json.decode")
	var out reply
	err = json.Unmarshal(data, &out)
	if err == nil {
		rec.digest, err = answerDigest(out.Scheme, out.Answers)
	}
	sp.done()
	if err != nil {
		rec.err = fmt.Errorf("decode response: %w", err)
	}
	rec.synopsis, rec.coalesced, rec.stats = out.Synopsis, out.Coalesced, out.Stats
	return rec
}

// reply is the part of an estimate response the client keeps. The
// answers stay raw JSON, so the load generator does not allocate every
// answer tuple in the process it shares with the server.
type reply struct {
	Scheme    string               `json:"scheme"`
	Answers   json.RawMessage      `json:"answers"`
	Synopsis  string               `json:"synopsis"`
	Coalesced bool                 `json:"coalesced"`
	Stats     server.EstimateStats `json:"stats"`
}

// answerDigest hashes a scheme name and the compacted JSON of the
// answers. encoding/json writes each float64 as its shortest exact
// decimal, so two digests agree only on bit-equal answers.
func answerDigest(scheme string, answers json.RawMessage) (uint64, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, answers); err != nil {
		return 0, err
	}
	h := fnv.New64a()
	io.WriteString(h, scheme)
	h.Write([]byte{0})
	h.Write(buf.Bytes())
	return h.Sum64(), nil
}

// expectedDigest computes the library answer for a request on the
// benchmark's own synopsis, with the service's option defaults.
func (env *serveEnv) expectedDigest(r serveRequest) (uint64, error) {
	c := env.combos[r.combo]
	opts := cqa.DefaultOptions()
	opts.Seed = r.seed
	ctx := context.Background()
	var res []cqa.TupleFreq
	var scheme cqa.Scheme
	var err error
	if r.scheme == "auto" {
		res, _, scheme, err = cqa.AutoAnswersContext(ctx, c.set, opts)
	} else {
		if scheme, err = cqa.ParseScheme(r.scheme); err == nil {
			res, _, err = cqa.ApxAnswersFromSetContext(ctx, c.set, scheme, opts)
		}
	}
	if err != nil {
		return 0, err
	}
	answers := make([]server.Answer, len(res))
	for i, tf := range res {
		vals := make([]string, len(tf.Tuple))
		for j, v := range tf.Tuple {
			vals[j] = c.db.Dict.Render(v)
		}
		answers[i] = server.Answer{Tuple: vals, Freq: tf.Freq}
	}
	raw, err := json.Marshal(answers)
	if err != nil {
		return 0, err
	}
	return answerDigest(scheme.String(), raw)
}

// checkResponses compares every 200 response, coalesced and reloaded
// ones included, with the library answer for the same request. It
// returns one message per mismatching request key.
func (env *serveEnv) checkResponses(recs []serveRecord) []string {
	want := make(map[serveRequest]uint64)
	var problems []string
	for _, rec := range recs {
		if rec.err != nil || rec.status != http.StatusOK {
			continue
		}
		d, ok := want[rec.req]
		if !ok {
			var err error
			if d, err = env.expectedDigest(rec.req); err != nil {
				problems = append(problems, fmt.Sprintf("library answer for %+v: %v", rec.req, err))
			}
			want[rec.req] = d
		}
		if rec.digest != d {
			problems = append(problems, fmt.Sprintf("%s %q scheme=%s seed=%d: response (synopsis=%s coalesced=%t) differs from the library answer",
				env.combos[rec.req.combo].instance, env.combos[rec.req.combo].query, rec.req.scheme, rec.req.seed, rec.synopsis, rec.coalesced))
			want[rec.req] = rec.digest // report each key once
		}
	}
	return problems
}

// deck is one cycle of the request stream: every combo in Zipf
// proportion over the popularity order, each request seed equally often,
// and a serveExplicit share of the requests on balanced queries naming a
// scheme. Every full cycle has exactly this mix; the workload seed
// decides the order.
func (env *serveEnv) deck() []serveRequest {
	w := make([]float64, len(env.combos))
	var total float64
	for r := range w {
		w[r] = 1 / math.Pow(float64(r+1), serveZipf)
		total += w[r]
	}
	var d []serveRequest
	for ci, c := range env.combos {
		n := max(1, int(math.Round(serveDeck*w[ci]/total)))
		explicit := 0
		if !c.boolean {
			explicit = int(math.Round(float64(n) * serveExplicit))
		}
		for k := 0; k < n; k++ {
			r := serveRequest{combo: ci, scheme: "auto", seed: env.seeds[(k/len(serveExplicitSchemes))%len(env.seeds)]}
			if k < explicit {
				r.scheme = serveExplicitSchemes[k%len(serveExplicitSchemes)]
			}
			d = append(d, r)
		}
	}
	return d
}

// stream deals one client's requests from its own copy of the deck,
// reshuffled at the start of every cycle.
type stream struct {
	src  *mt.Source
	deck []serveRequest
	pos  int
}

func newStream(env *serveEnv, seed uint64) *stream {
	return &stream{src: mt.New(seed), deck: env.deck()}
}

func (s *stream) next() serveRequest {
	if s.pos == 0 {
		s.src.Shuffle(len(s.deck), func(i, j int) { s.deck[i], s.deck[j] = s.deck[j], s.deck[i] })
	}
	r := s.deck[s.pos]
	s.pos = (s.pos + 1) % len(s.deck)
	return r
}

// load runs nproc closed-loop clients until the deadline. In a traced
// run every other batch of env.batch requests records spans, so traced
// and untraced batches interleave.
func (env *serveEnv) load(cfg config, root *span) ([]serveRecord, time.Time) {
	clients := runtime.NumCPU()
	var (
		mu   sync.Mutex
		recs []serveRecord
		wg   sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(cfg.seconds)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := newServeClient()
			defer client.CloseIdleConnections()
			st := newStream(env, derive(cfg.seed, fmt.Sprintf("serve/client/%d", c)))
			for time.Now().Before(deadline) {
				mu.Lock()
				tracing := cfg.trace && (len(recs)/env.batch)%2 == 1
				mu.Unlock()
				var op *span
				if tracing {
					op = root.op("request")
				}
				rec := env.post(client, st.next(), op)
				op.done()
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return recs, start
}

func runServe(cfg config) (*report, error) {
	rep := newReport("serve")
	k := 0
	env, setupS, err := timedSetups(setupRepeats(cfg), func() (*serveEnv, error) {
		k++
		return setupServe(cfg, k)
	}, func(e *serveEnv) { e.close() })
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", setupS)
	tr := newTracer(cfg)
	root := tr.root("serve")

	runtime.GC()
	recs, start := env.load(cfg, root)
	rep.set("mem_peak_mb", residentMB())
	root.done()
	env.close()

	sort.Slice(recs, func(i, j int) bool { return recs[i].done.Before(recs[j].done) })
	var lat []time.Duration
	var ok int
	end := start
	for _, r := range recs {
		var err error
		switch {
		case r.err != nil:
			err = r.err
		case r.status != http.StatusOK:
			err = fmt.Errorf("status %d", r.status)
		default:
			ok++
		}
		rep.op(err)
		lat = append(lat, r.latency)
		end = r.done
	}
	for _, p := range env.checkResponses(recs) {
		rep.check(false, "%s", p)
	}

	// A pass is env.batch completed requests. Untraced, pass_s is the
	// measured phase's wall time per env.batch successful requests: the
	// whole run's request mix, not one batch's. A traced run compares
	// its untraced and traced batches, batch k being traced when k is
	// odd.
	wall := end.Sub(start).Seconds()
	if ok > 0 {
		rep.set("pass_s", wall*float64(env.batch)/float64(ok))
	}
	var plainPass, tracedPass []float64
	prev := start
	for i := env.batch - 1; i < len(recs); i += env.batch {
		d := recs[i].done.Sub(prev).Seconds()
		prev = recs[i].done
		if (i/env.batch)%2 == 1 {
			tracedPass = append(tracedPass, d)
		} else {
			plainPass = append(plainPass, d)
		}
	}
	if len(lat) < 1000 && !cfg.tiny {
		fmt.Fprintf(os.Stderr, "cqaperf: serve: only %d requests, so req_p99_ms has fewer than 10 beyond it\n", len(lat))
	}
	if wall > 0 {
		rep.setNamed("serve_rps", "req/s", float64(ok)/wall)
	}
	rep.setNamed("req_p50_ms", "ms", quantile(millis(lat), 0.5))
	rep.setNamed("req_p99_ms", "ms", quantile(millis(lat), 0.99))
	rep.setNamed("mem_peak_mb", "MB", rep.values["mem_peak_mb"])
	rep.setNamed("fail_frac", "ratio", float64(rep.failed)/float64(max(rep.attempted, 1)))
	rep.setNamed("setup_s", "s", setupS)

	if cfg.trace {
		if len(tracedPass) > 0 && len(plainPass) > 0 {
			rep.set("obs.trace_overhead.serve", median(tracedPass)-median(plainPass))
		}
		serveLayers(rep, env, recs)
		if err := writeTrace(tr, cfg); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// serveLayers derives the server's per-layer metrics from the stats
// every 200 response carries.
func serveLayers(rep *report, env *serveEnv, recs []serveRecord) {
	var queue, est, over, bytesN []float64
	prep := map[string][]float64{}
	counts := map[string]int{}
	var ok, coalesced, rejected int
	for _, r := range recs {
		if r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable {
			rejected++
		}
		if r.err != nil || r.status != http.StatusOK {
			continue
		}
		ok++
		s := r.stats
		queue = append(queue, s.QueueWaitMS)
		est = append(est, s.ElapsedMS)
		over = append(over, float64(r.latency.Nanoseconds())/1e6-s.QueueWaitMS-s.PrepMS-s.ElapsedMS)
		prep[r.synopsis] = append(prep[r.synopsis], s.PrepMS)
		counts[r.synopsis]++
		bytesN = append(bytesN, float64(r.bytes))
		if r.coalesced {
			coalesced++
		}
	}
	rep.set("server.queue_wait_ms.p50", quantile(queue, 0.5))
	rep.set("server.queue_wait_ms.p99", quantile(queue, 0.99))
	rep.set("server.estimate_ms.p50", quantile(est, 0.5))
	rep.set("server.estimate_ms.p99", quantile(est, 0.99))
	rep.set("server.overhead_ms.p50", quantile(over, 0.5))
	rep.set("server.resp_bytes", quantile(bytesN, 0.5))
	for _, src := range []string{"lru", "load", "build"} {
		rep.set("server.prep_ms."+src, quantile(prep[src], 0.5))
	}
	if ok > 0 {
		rep.set("server.lru_hit_ratio", float64(counts["lru"])/float64(ok))
		rep.set("server.reload_ratio", float64(counts["load"])/float64(ok))
		rep.set("server.build_ratio", float64(counts["build"])/float64(ok))
		rep.set("server.coalesced_ratio", float64(coalesced)/float64(ok))
	}
	if len(recs) > 0 {
		rep.set("server.reject_ratio", float64(rejected)/float64(len(recs)))
	}
	rep.set("server.working_set_bytes", float64(env.workingSet))
	rep.set("server.lru_budget_bytes", float64(env.budget))
}
