package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"cqabench/internal/obs"
	"cqabench/internal/obs/trace"
)

// tracer keeps the spans of a traced run in memory; write exports them
// as a Chrome trace when the run ends. Spans nest workload → operation
// → layer call, and the spans of one operation share its ID. All
// methods are nil-safe, so untraced code paths pass a nil tracer/span.
type tracer struct {
	mu    sync.Mutex
	roots []*span
	ops   atomic.Int64
}

type span struct {
	t        *tracer
	name     string
	opID     int64 // operation ID, 0 on workload roots
	start    time.Time
	end      time.Time
	mu       sync.Mutex
	children []*span
}

// root starts a workload-level span.
func (t *tracer) root(name string) *span {
	if t == nil {
		return nil
	}
	s := &span{t: t, name: name, start: time.Now()}
	t.mu.Lock()
	t.roots = append(t.roots, s)
	t.mu.Unlock()
	return s
}

// op starts an operation span with a fresh ID under s.
func (s *span) op(name string) *span {
	if s == nil {
		return nil
	}
	return s.child(name, s.t.ops.Add(1))
}

// call starts a layer-call span under s, in s's operation.
func (s *span) call(name string) *span {
	if s == nil {
		return nil
	}
	return s.child(name, s.opID)
}

func (s *span) child(name string, op int64) *span {
	c := &span{t: s.t, name: name, opID: op, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// done ends the span.
func (s *span) done() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.end = time.Now()
	s.mu.Unlock()
}

func (s *span) data() obs.SpanData {
	s.mu.Lock()
	defer s.mu.Unlock()
	name := s.name
	if s.opID != 0 {
		name = fmt.Sprintf("%s [op %d]", s.name, s.opID)
	}
	d := obs.SpanData{Name: name, Start: s.start, End: s.end}
	if d.End.IsZero() {
		d.End = d.Start
	}
	for _, c := range s.children {
		d.Children = append(d.Children, c.data())
	}
	return d
}

// write exports every span as a Chrome trace file at path.
func (t *tracer) write(path string, meta map[string]any) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	roots := make([]obs.SpanData, 0, len(t.roots))
	for _, r := range t.roots {
		roots = append(roots, r.data())
	}
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, meta, roots); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// newTracer returns a tracer for traced runs and nil otherwise.
func newTracer(cfg config) *tracer {
	if !cfg.trace {
		return nil
	}
	return &tracer{}
}

// writeTrace exports a traced run's spans under cfg.out/traces.
func writeTrace(t *tracer, cfg config) error {
	path := filepath.Join(cfg.out, "traces", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	return t.write(path, map[string]any{"workload": cfg.workload, "seed": cfg.seed})
}
