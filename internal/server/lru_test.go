package server

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"cqabench/internal/obs"
	"cqabench/internal/relation"
	"cqabench/internal/syncache"
	"cqabench/internal/synopsis"
)

// encodedSynopsisSize builds the synopsis of query against db and
// returns its canonical encoded length — the unit the LRU budget is
// denominated in.
func encodedSynopsisSize(t *testing.T, db *relation.Database, query string) int64 {
	t.Helper()
	q, err := parseQuery(query, db)
	if err != nil {
		t.Fatal(err)
	}
	set, err := synopsis.BuildContext(context.Background(), db, q)
	if err != nil {
		t.Fatal(err)
	}
	return int64(syncache.EncodedSize(set))
}

// Three distinct queries cycled through a budget that fits ~1.5
// synopses: residency must never exceed the budget, evictions must be
// counted, and an evicted synopsis must come back from the on-disk
// syncache ("load", not "build") with bit-identical estimates.
func TestSynopsisLRUEvictsUnderBudget(t *testing.T) {
	db := smallDB(t)
	queries := []string{
		"Q() :- Employee(1, n1, d), Employee(2, n2, d)",
		"Q(n) :- Employee(i, n, d)",
		"Q(d) :- Employee(i, n, d)",
	}
	size := encodedSynopsisSize(t, db, queries[0])
	budget := size + size/2

	cache, err := syncache.Open(t.TempDir(), syncache.ModeReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{
		Instances:         []InstanceConfig{{Name: "default", DB: db, KeyPrefix: "lru-test"}},
		Cache:             cache,
		SynopsisMemBudget: budget,
		Workers:           2,
	})

	estimate := func(query string) EstimateResponse {
		body, _ := json.Marshal(EstimateRequest{Query: query, Scheme: "KLM", Seed: 7})
		status, respBody, _ := post(t, ts.URL+"/v1/estimate", string(body))
		if status != http.StatusOK {
			t.Fatalf("estimate %q = %d: %s", query, status, respBody)
		}
		var resp EstimateResponse
		if err := json.Unmarshal([]byte(respBody), &resp); err != nil {
			t.Fatal(err)
		}
		if got := s.ResidentSynopsisBytes(); got > budget {
			t.Fatalf("resident synopsis bytes %d exceed budget %d", got, budget)
		}
		return resp
	}

	first := estimate(queries[0])
	if first.Synopsis != "build" {
		t.Fatalf("first synopsis source = %q, want build", first.Synopsis)
	}
	// The second and third queries don't fit alongside the first, so the
	// cold end (queries[0], then queries[1]) must be evicted.
	estimate(queries[1])
	estimate(queries[2])
	if v := s.Registry().Counter("synopsis_evictions_total", obs.L("instance", "default")).Value(); v < 2 {
		t.Fatalf("synopsis_evictions_total = %v, want >= 2", v)
	}

	// The evicted synopsis reloads from syncache and the estimate is
	// bit-identical: same seed, same synopsis bytes, same PRNG stream.
	again := estimate(queries[0])
	if again.Synopsis != "load" {
		t.Fatalf("post-eviction synopsis source = %q, want load", again.Synopsis)
	}
	if len(again.Answers) != len(first.Answers) || again.Stats.Samples != first.Stats.Samples {
		t.Fatalf("post-eviction run diverged: %+v vs %+v", again.Stats, first.Stats)
	}
	for i := range first.Answers {
		if first.Answers[i].Freq != again.Answers[i].Freq {
			t.Fatalf("answer %d: freq %v != %v after eviction round-trip",
				i, first.Answers[i].Freq, again.Answers[i].Freq)
		}
	}
}

// With no budget configured nothing is ever evicted, matching the
// pre-registry resident-memo behavior.
func TestSynopsisLRUUnlimitedByDefault(t *testing.T) {
	s, ts := newTestServer(t, Config{Instances: defaultInstance(smallDB(t)), Workers: 2})
	for _, q := range []string{
		"Q() :- Employee(1, n1, d), Employee(2, n2, d)",
		"Q(n) :- Employee(i, n, d)",
		"Q(d) :- Employee(i, n, d)",
	} {
		body, _ := json.Marshal(EstimateRequest{Query: q, Scheme: "KLM"})
		post(t, ts.URL+"/v1/estimate", string(body))
	}
	if v := s.Registry().Counter("synopsis_evictions_total", obs.L("instance", "default")).Value(); v != 0 {
		t.Fatalf("synopsis_evictions_total = %v, want 0 without a budget", v)
	}
	if entries, _ := s.lru.residentFor("default"); entries != 3 {
		t.Fatalf("resident entries = %d, want 3", entries)
	}
}

// An entry larger than the entire budget serves its request but never
// becomes resident (storing it would immediately evict everything,
// including itself).
func TestSynopsisLRUOversizeEntry(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Instances:         defaultInstance(smallDB(t)),
		SynopsisMemBudget: 1, // nothing fits
		Workers:           2,
	})
	status, body, _ := post(t, ts.URL+"/v1/estimate",
		`{"query": "Q(n) :- Employee(i, n, d)", "scheme": "KLM"}`)
	if status != http.StatusOK {
		t.Fatalf("estimate = %d: %s", status, body)
	}
	if got := s.ResidentSynopsisBytes(); got != 0 {
		t.Fatalf("resident bytes = %d, want 0 for oversize entry", got)
	}
	if v := s.Registry().Counter("synopsis_oversize_total", obs.L("instance", "default")).Value(); v != 1 {
		t.Fatalf("synopsis_oversize_total = %v, want 1", v)
	}
}

// Direct LRU unit coverage: recency order, duplicate puts keeping the
// first set, and dropInstance removing only the named instance's
// entries.
func TestSynopsisLRUUnit(t *testing.T) {
	reg := obs.NewRegistry()
	l := newSynopsisLRU(100, reg)
	setA, setB := &synopsis.Set{}, &synopsis.Set{}

	l.put(lruKey{"a", "q1"}, setA, 40)
	l.put(lruKey{"b", "q1"}, setB, 40)
	// Touch a/q1 so b/q1 is now the cold end; the next insert evicts it.
	if _, ok := l.get(lruKey{"a", "q1"}); !ok {
		t.Fatal("a/q1 not resident")
	}
	l.put(lruKey{"a", "q2"}, &synopsis.Set{}, 40)
	if _, ok := l.get(lruKey{"b", "q1"}); ok {
		t.Fatal("cold entry b/q1 survived over-budget insert")
	}
	if got := l.residentBytes(); got != 80 {
		t.Fatalf("resident = %d, want 80", got)
	}

	// A duplicate put keeps (and returns) the first stored set.
	other := &synopsis.Set{}
	if got := l.put(lruKey{"a", "q1"}, other, 40); got != setA {
		t.Fatal("duplicate put replaced the resident set")
	}

	l.dropInstance("a")
	if got := l.residentBytes(); got != 0 {
		t.Fatalf("resident after dropInstance = %d, want 0", got)
	}
	if n, _ := l.residentFor("a"); n != 0 {
		t.Fatalf("instance a entries = %d, want 0", n)
	}
}
