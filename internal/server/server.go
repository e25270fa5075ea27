// Package server exposes the approximation pipeline as a long-running
// multi-instance HTTP service. An instance registry maps names to
// (possibly inconsistent) database instances — populated at startup
// from Config.Instances (the `-instances` manifest) and at runtime via
// POST/GET/DELETE /v1/instances — and every estimation request
// addresses one instance: POST /v1/estimate runs one ApxCQA[scheme]
// call, POST /v1/synopsis inspects the preprocessing step, and
// /healthz, /version and /metrics report liveness, provenance and the
// obs registry.
//
// The service is built around the context-first API: every request gets
// a deadline-bound context.Context that flows into the estimators, so a
// client disconnect or a request timeout aborts the sampling loops
// within about one 256-draw chunk. Concurrency is bounded by a worker
// pool with per-instance admission control: each instance owns a
// bounded queue (Config.QueueDepth) and worker slots are granted by a
// weighted deficit-round-robin scheduler (see scheduler.go), so a hot
// instance cannot starve a light one. Instances may additionally carry
// token-bucket quotas on requests and sampling work plus a concurrency
// cap (see quota.go); requests over quota or over a full queue are
// refused immediately with 429 rather than queueing without bound, and
// during graceful shutdown, in-flight requests drain while new ones
// are refused with 503. Every rejection carries the structured error
// envelope of apierror.go.
//
// Two mechanisms keep the multi-instance service within its means.
// Resident synopses live under one LRU byte budget
// (Config.SynopsisMemBudget), each charged its canonical encoded
// length (syncache.EncodedSize); cold synopses are evicted and
// transparently reloaded from the on-disk syncache — or rebuilt — on
// their next request. And identical in-flight estimate requests are
// coalesced single-flight on (instance, rendered query, scheme,
// options fingerprint): a thundering herd shares one worker slot, one
// PRNG stream and one result, with followers counted in
// estimate_coalesced_total.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"cqabench/internal/cq"
	"cqabench/internal/cqa"
	"cqabench/internal/obs"
	"cqabench/internal/obs/manifest"
	"cqabench/internal/relation"
	"cqabench/internal/scenario"
	"cqabench/internal/syncache"
	"cqabench/internal/synopsis"
)

// InstanceConfig is one instance registered at server construction.
type InstanceConfig struct {
	// Name addresses the instance in requests; must satisfy
	// scenario.ValidInstanceName.
	Name string
	// DB is the instance's database. Required.
	DB *relation.Database
	// KeyPrefix fingerprints the instance contents for syncache keys
	// (the server cannot derive one itself); empty disables on-disk
	// synopsis persistence for this instance.
	KeyPrefix string
	// Source records how the instance arrived ("manifest", "flags",
	// ...); empty selects "config". Informational — it appears in
	// GET /v1/instances.
	Source string
	// Spec, when the instance was built from a scenario.InstanceSpec,
	// carries the build provenance into the instance listing.
	Spec *scenario.InstanceSpec
	// Weight is the instance's DRR scheduling weight (0 selects 1).
	Weight int
	// Quota bounds the instance's request rate, sampling work and
	// concurrency; nil defers to Config.DefaultQuota.
	Quota *scenario.QuotaSpec
}

// Config parameterizes a Server. The zero value of every field selects
// a sensible default; a server may start with no instances at all and
// acquire them through POST /v1/instances.
type Config struct {
	// Instances are registered, in order, at construction.
	Instances []InstanceConfig

	// SynopsisMemBudget bounds the total bytes of resident synopses
	// across all instances, measured as syncache.EncodedSize — the
	// canonical .syn byte length. When the budget is exceeded the
	// least-recently-used synopses are evicted and reloaded from the
	// Cache (or rebuilt) on their next request. <= 0 disables
	// eviction.
	SynopsisMemBudget int64

	// Workers bounds the number of concurrently running estimations.
	// <= 0 selects GOMAXPROCS.
	Workers int

	// QueueDepth bounds how many requests may wait for a worker slot
	// per instance. Requests arriving at an instance whose queue is
	// full are refused with 429 (queue_full). <= 0 selects 2*Workers.
	QueueDepth int

	// DefaultQuota, when non-nil, applies to every instance that does
	// not declare its own quota (manifest "quota" block or
	// InstanceConfig.Quota). Nil means no limits by default.
	DefaultQuota *scenario.QuotaSpec

	// SamplingWorkers is the default draw schedule applied to estimate
	// requests that do not set sampling_workers themselves
	// (cqa.Options.SamplingWorkers semantics: 0 or 1 sequential, n ≥ 2
	// the parallel schedule on n workers, -1 auto-sized). Values below
	// -1 are rejected by New.
	SamplingWorkers int

	// DefaultTimeout is the per-request deadline applied when the client
	// does not send timeout_ms. <= 0 selects 30s.
	DefaultTimeout time.Duration

	// MaxTimeout caps client-requested timeouts. <= 0 selects 2m.
	MaxTimeout time.Duration

	// MaxBodyBytes caps request body sizes; larger bodies get 413.
	// <= 0 selects 1 MiB.
	MaxBodyBytes int64

	// Cache, when non-nil and enabled, persists built synopses through
	// the content-addressed syncache store in addition to the resident
	// LRU — it is also what evicted synopses reload from.
	Cache *syncache.Cache

	// Registry receives the service metrics; nil selects a fresh one.
	Registry *obs.Registry

	// Logger receives request and lifecycle logs; nil discards them.
	Logger *slog.Logger

	// RequestLogCap bounds the in-memory ring of recent request records
	// behind /debug/requests. <= 0 selects DefaultRequestLogCap (256).
	RequestLogCap int

	// SLOWindows are the rolling windows for the windowed latency
	// quantiles (server_request_seconds_window and
	// server_queue_wait_seconds_window). Empty selects ~1m and ~5m.
	SLOWindows []time.Duration

	// EnablePprof mounts the runtime profile handlers (/debug/pprof/...)
	// on the service mux. Off by default: profiles expose internals and
	// cost CPU, so exposing them is an explicit operator decision.
	EnablePprof bool

	// Manifest is the run provenance served by GET /version and embedded
	// in /metrics.json and per-request trace exports. Nil collects a
	// fresh one for this process.
	Manifest *manifest.RunManifest
}

// Server is the HTTP service. Create with New, start with Start, stop
// with Shutdown.
type Server struct {
	cfg     Config
	reg     *obs.Registry
	log     *slog.Logger
	workers int
	depth   int

	// sched is the DRR fair scheduler: per-instance bounded queues,
	// weighted slot grants, token-bucket quotas and concurrency caps.
	sched    *scheduler
	draining atomic.Bool

	// instances is the name -> database registry; lru governs resident
	// synopsis memory across all instances; flights coalesces identical
	// in-flight estimates.
	instances *instanceRegistry
	lru       *synopsisLRU
	flights   *flightGroup

	// onEstimateStart, when non-nil, runs on the leader's goroutine
	// after its flight is registered and admitted, before the estimator
	// starts. Test-only hook for deterministic coalescing tests.
	onEstimateStart func()

	// reqlog is the bounded ring behind /debug/requests; windows
	// parameterize the rolling latency quantiles; manifest backs
	// /version and the provenance envelopes; started anchors
	// server_uptime_seconds.
	reqlog   *requestLog
	windows  []time.Duration
	manifest *manifest.RunManifest
	started  time.Time

	httpSrv *http.Server
	ln      net.Listener
}

// instrumentedEndpoints are the endpoints carrying the full
// per-request observability substrate (windowed latency series are
// registered eagerly per instance for the first two).
var estimationEndpoints = []string{"/v1/estimate", "/v1/synopsis"}

// New validates cfg and assembles a Server without binding a socket.
func New(cfg Config) (*Server, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 2 * workers
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 30 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 2 * time.Minute
	}
	if cfg.DefaultTimeout > cfg.MaxTimeout {
		return nil, fmt.Errorf("server: default timeout %v exceeds max timeout %v", cfg.DefaultTimeout, cfg.MaxTimeout)
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.SamplingWorkers < -1 {
		return nil, fmt.Errorf("server: sampling workers %d (want -1 auto, 0/1 sequential, or a pool size ≥ 2)", cfg.SamplingWorkers)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	windows := cfg.SLOWindows
	if len(windows) == 0 {
		windows = obs.DefaultWindows()
	}
	for _, w := range windows {
		if w <= 0 {
			return nil, fmt.Errorf("server: non-positive SLO window %v", w)
		}
	}
	m := cfg.Manifest
	if m == nil {
		collected := manifest.Collect("server", nil)
		m = &collected
	}
	if cfg.DefaultQuota != nil {
		if err := cfg.DefaultQuota.Validate(); err != nil {
			return nil, fmt.Errorf("server: default quota: %w", err)
		}
	}
	s := &Server{
		cfg:       cfg,
		reg:       reg,
		log:       logger,
		workers:   workers,
		depth:     depth,
		sched:     newScheduler(workers, depth, cfg.DefaultQuota, reg),
		instances: newInstanceRegistry(reg),
		lru:       newSynopsisLRU(cfg.SynopsisMemBudget, reg),
		flights:   newFlightGroup(),
		reqlog:    newRequestLog(cfg.RequestLogCap),
		windows:   windows,
		manifest:  m,
		started:   time.Now(),
	}
	for _, ic := range cfg.Instances {
		if ic.DB == nil {
			return nil, fmt.Errorf("server: instance %q has no database", ic.Name)
		}
		if err := scenario.ValidateWeight(ic.Weight); err != nil {
			return nil, fmt.Errorf("server: instance %q: %w", ic.Name, err)
		}
		if ic.Quota != nil {
			if err := ic.Quota.Validate(); err != nil {
				return nil, fmt.Errorf("server: instance %q: %w", ic.Name, err)
			}
		}
		source := ic.Source
		if source == "" {
			source = "config"
		}
		if err := s.registerInstance(&Instance{
			Name:        ic.Name,
			Source:      source,
			Created:     time.Now(),
			Fingerprint: ic.KeyPrefix,
			db:          ic.DB,
			spec:        ic.Spec,
		}, ic.Weight, ic.Quota); err != nil {
			return nil, err
		}
	}
	// Register the instance-less windowed latency series eagerly so
	// /metrics exposes them (at zero) from the first scrape; the
	// per-instance variants are registered as instances arrive.
	for _, ep := range estimationEndpoints {
		s.requestSeconds(ep, noInstance)
		s.queueWaitSeconds(ep, noInstance)
	}
	// server_build_info is the Prometheus build-info idiom: a constant 1
	// whose labels carry the identity, so dashboards can join on it and
	// alert on version changes. server_uptime_seconds resets on restart.
	sha := m.GitSHA
	if sha == "" {
		sha = "unknown"
	}
	s.reg.Gauge("server_build_info",
		obs.L("git_sha", sha), obs.L("go_version", m.GoVersion)).Set(1)
	// estimator_sampling_workers reports the server's default pool size
	// (1 = sequential schedule); per-request overrides don't move it,
	// they show up in estimator_chunks_total instead.
	defaultPool, _ := cqa.SamplingPool(cfg.SamplingWorkers)
	s.reg.Gauge("estimator_sampling_workers").Set(float64(defaultPool))
	s.refreshUptime()
	s.httpSrv = &http.Server{
		Handler:           s.routes(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s, nil
}

// noInstance is the instance label of requests that never resolved an
// instance (rejected before routing, or unknown names).
const noInstance = "none"

// registerInstance adds in to the registry, installs its scheduling
// policy (weight 0 and quota nil select the defaults), and eagerly
// registers its per-instance windowed latency series.
func (s *Server) registerInstance(in *Instance, weight int, quota *scenario.QuotaSpec) error {
	if err := s.instances.add(in); err != nil {
		return err
	}
	s.sched.registerTenant(in.Name, weight, quota)
	s.instanceSeries(in)
	s.log.Info("server: instance registered",
		"instance", in.Name, "source", in.Source, "facts", in.db.NumFacts())
	return nil
}

// instanceSeries eagerly registers the per-instance windowed latency
// series so /metrics exposes them (at zero) from the moment the
// instance exists, not its first request.
func (s *Server) instanceSeries(in *Instance) {
	for _, ep := range estimationEndpoints {
		s.requestSeconds(ep, in.Name)
		s.queueWaitSeconds(ep, in.Name)
	}
	s.estimatorChunks(in.Name)
}

// estimatorChunks returns the per-instance counter of substream chunks
// the parallel sampling path consumed (registered eagerly at zero).
func (s *Server) estimatorChunks(instance string) *obs.Counter {
	return s.reg.Counter("estimator_chunks_total", obs.L("instance", instance))
}

// requestSeconds returns the windowed end-to-end latency histogram for
// an (endpoint, instance) pair.
func (s *Server) requestSeconds(endpoint, instance string) *obs.WindowedHistogram {
	return s.reg.WindowedHistogram("server_request_seconds", s.windows,
		obs.L("endpoint", endpoint), obs.L("instance", instance))
}

// queueWaitSeconds returns the windowed admission-queue wait histogram
// for an (endpoint, instance) pair.
func (s *Server) queueWaitSeconds(endpoint, instance string) *obs.WindowedHistogram {
	return s.reg.WindowedHistogram("server_queue_wait_seconds", s.windows,
		obs.L("endpoint", endpoint), obs.L("instance", instance))
}

// Registry returns the metrics registry the server reports into.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Instances returns the registered instances, sorted by name.
func (s *Server) Instances() []*Instance { return s.instances.list() }

// ResidentSynopsisBytes reports the bytes currently charged against the
// synopsis memory budget. Exposed for tests and capacity checks.
func (s *Server) ResidentSynopsisBytes() int64 { return s.lru.residentBytes() }

// refreshUptime recomputes server_uptime_seconds; the metrics handlers
// call it per scrape so the gauge is current without a ticker goroutine.
func (s *Server) refreshUptime() {
	s.reg.Gauge("server_uptime_seconds").Set(time.Since(s.started).Seconds())
}

// Start binds addr (host:port; port 0 picks a free one) and serves until
// Shutdown. It returns the bound address immediately; serve errors after
// startup are logged, not returned.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("server: listen %s: %w", addr, err)
	}
	s.ln = ln
	go func() {
		if err := s.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.log.Error("server: serve failed", "err", err)
		}
	}()
	s.log.Info("server: listening", "addr", ln.Addr().String(),
		"workers", s.workers, "queue_depth", s.depth,
		"instances", s.instances.names())
	return ln.Addr().String(), nil
}

// Shutdown drains the server: new requests are refused with 503 while
// in-flight ones run to completion (or until ctx expires, at which point
// their connections are closed).
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.log.Info("server: draining", "inflight", s.sched.inflight())
	return s.httpSrv.Shutdown(ctx)
}

// Inflight reports the number of requests currently holding a worker
// slot. Exposed for tests and the drain log line.
func (s *Server) Inflight() int64 { return s.sched.inflight() }

// Admission errors, produced by acquire and mapped onto HTTP statuses
// by writeAdmitError. Sentinels so single-flight followers can share
// the leader's admission outcome.
var (
	errDraining  = errors.New("server is shutting down")
	errQueueFull = errors.New("admission queue full")
)

// acquire applies the admission policy for instance: refuse while
// draining (503), refuse when the instance's queue is full (429), then
// wait for the DRR scheduler to grant a worker slot, giving up if ctx
// expires first (504). On nil error the caller must call release
// exactly once.
//
// The wait for a slot is attributed to a queue.wait child of the
// request's span and observed in server_queue_wait_seconds, so queue
// time is separable from estimation time both per request and in the
// aggregate quantiles; the scheduling decision (queued or not, queue
// position, weight, deficit) lands on the request's debug record.
func (s *Server) acquire(ctx context.Context, instance string) (release func(), err error) {
	st := reqStateFrom(ctx)
	if s.draining.Load() {
		return nil, errDraining
	}
	qspan := obs.FromContext(ctx).StartChild("queue.wait")
	waitStart := time.Now()
	release, out, err := s.sched.acquire(ctx, instance)
	qspan.End()
	wait := time.Since(waitStart)
	st.setQueueWait(wait)
	st.setSched(SchedDecision{
		Queued:      out.queued,
		QueuedAhead: out.queuedAhead,
		Weight:      out.weight,
		Deficit:     out.deficit,
	})
	if !errors.Is(err, errQueueFull) {
		// Queue-full rejections never waited; don't pollute the wait SLO.
		endpoint := "unknown"
		if st != nil {
			endpoint = st.rec.Endpoint
		}
		name := instance
		if name == "" {
			name = noInstance
		}
		s.queueWaitSeconds(endpoint, name).ObserveDuration(wait)
	}
	if err != nil {
		return nil, err
	}
	return release, nil
}

// writeAdmitError maps an acquire failure onto the admission error
// model (503 draining, 429 queue_full, 504 deadline), counts it, and
// records the reason on the request's debug record (st may be nil).
func (s *Server) writeAdmitError(w http.ResponseWriter, st *reqState, err error) {
	status, reason := http.StatusGatewayTimeout, codeDeadline
	switch {
	case errors.Is(err, errDraining):
		status, reason = http.StatusServiceUnavailable, codeDraining
	case errors.Is(err, errQueueFull):
		status, reason = http.StatusTooManyRequests, codeQueueFull
	}
	s.reject(w, st, status, reason, err.Error())
}

// reject writes an admission failure, counts it, and records the reason
// on the request's debug record (st may be nil).
func (s *Server) reject(w http.ResponseWriter, st *reqState, status int, reason, msg string) {
	s.reg.Counter("server_rejected_total", obs.L("reason", reason)).Inc()
	var retryAfterMS int64
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
		retryAfterMS = 1000
	}
	st.setReason(reason)
	instance := ""
	if st != nil {
		instance = st.rec.Instance
	}
	writeAPIError(w, status, APIError{
		Code:         reason,
		Message:      msg,
		Instance:     instance,
		RetryAfterMS: retryAfterMS,
	})
}

// requestContext derives the per-request context: the client's
// timeout_ms when given (capped at MaxTimeout), DefaultTimeout
// otherwise, layered over r.Context() so client disconnects cancel too.
func (s *Server) requestContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
		if d > s.cfg.MaxTimeout {
			d = s.cfg.MaxTimeout
		}
	}
	return context.WithTimeout(r.Context(), d)
}

// synopsisFor returns the synopsis of the already-parsed query q
// (canonically rendered as key) against instance in. source is "lru"
// (resident), "load" (reloaded from syncache) or "build" (computed
// now). The result is made resident in the LRU, which may evict colder
// synopses to stay under the memory budget.
func (s *Server) synopsisFor(ctx context.Context, in *Instance, q *cq.Query, key string) (*synopsis.Set, string, error) {
	lk := lruKey{instance: in.Name, query: key}
	if set, ok := s.lru.get(lk); ok {
		return set, "lru", nil
	}
	source := "build"
	var set *synopsis.Set
	var err error
	if s.cfg.Cache != nil && s.cfg.Cache.Enabled() && in.Fingerprint != "" {
		var src syncache.Source
		set, src, err = s.cfg.Cache.Resolve(
			syncache.Key("serve", in.Fingerprint, key),
			func() (*synopsis.Set, error) { return synopsis.BuildContext(ctx, in.db, q) },
		)
		if src == syncache.SourceLoad {
			source = "load"
		}
	} else {
		set, err = synopsis.BuildContext(ctx, in.db, q)
	}
	if err != nil {
		return nil, "", err
	}
	// A concurrent build of the same key may have won the LRU slot; put
	// returns the first stored set so every request shares one synopsis.
	set = s.lru.put(lk, set, int64(syncache.EncodedSize(set)))
	return set, source, nil
}
