package cqa

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"cqabench/internal/estimator"
	"cqabench/internal/mt"
	"cqabench/internal/sampler"
	"cqabench/internal/synopsis"
)

// goldenSet wraps the golden pairs into a multi-tuple synopsis set, so
// scheme-level determinism tests exercise the per-tuple substream-root
// derivation (tupleSeed) too.
func goldenSet() *synopsis.Set {
	set := &synopsis.Set{}
	for _, p := range goldenPairs() {
		set.Entries = append(set.Entries, synopsis.Entry{Pair: p.pair})
	}
	return set
}

func sameRun(t *testing.T, tag string, aRes, bRes []TupleFreq, aStats, bStats Stats, aErr, bErr error) {
	t.Helper()
	if (aErr == nil) != (bErr == nil) {
		t.Fatalf("%s: errors differ: %v vs %v", tag, aErr, bErr)
	}
	if aErr != nil && !errors.Is(bErr, estimator.ErrBudget) {
		t.Fatalf("%s: error %v does not wrap ErrBudget", tag, bErr)
	}
	if len(aRes) != len(bRes) {
		t.Fatalf("%s: result lengths differ: %d vs %d", tag, len(aRes), len(bRes))
	}
	for i := range aRes {
		if math.Float64bits(aRes[i].Freq) != math.Float64bits(bRes[i].Freq) {
			t.Fatalf("%s: tuple %d estimates differ: %v vs %v", tag, i, aRes[i].Freq, bRes[i].Freq)
		}
	}
	if aStats.Samples != bStats.Samples {
		t.Fatalf("%s: sample counts differ: %d vs %d", tag, aStats.Samples, bStats.Samples)
	}
	if aStats.Chunks != bStats.Chunks {
		t.Fatalf("%s: chunk counts differ: %d vs %d", tag, aStats.Chunks, bStats.Chunks)
	}
}

// TestParallelScheduleEquivalence is the scheme-level determinism
// table and the two-schedule contract's central equality:
// ApxAnswersParallelContext with w workers equals
// ApxAnswersFromSetContext with SamplingWorkers = n bit for bit —
// estimates, Samples, Chunks and budget errors — for all four schemes,
// every pool size (-1 and 0 = auto included) and both fan-outs.
// The few set has fewer tuples than three workers, so both fan-outs run
// on it; the many set has more tuples than any fixed pool here, so the
// pool fans out over tuples. Run under -race in CI.
func TestParallelScheduleEquivalence(t *testing.T) {
	pairs := goldenPairs()
	few := &synopsis.Set{Entries: []synopsis.Entry{{Pair: pairs[0].pair}, {Pair: pairs[3].pair}}}
	many := &synopsis.Set{}
	for r := 0; r < 3; r++ {
		for _, p := range pairs {
			many.Entries = append(many.Entries, synopsis.Entry{Pair: p.pair})
		}
	}
	ctx := context.Background()
	for name, set := range map[string]*synopsis.Set{"few": few, "many": many} {
		for _, scheme := range Schemes {
			for _, maxSamples := range []int64{0, 37, 20000} {
				opts := Options{Eps: 0.25, Delta: 0.3, Seed: 7,
					Budget: estimator.Budget{MaxSamples: maxSamples}}
				tag := fmt.Sprintf("%s/%v/max=%d", name, scheme, maxSamples)
				ref := opts
				ref.SamplingWorkers = 2
				refRes, refStats, refErr := ApxAnswersFromSetContext(ctx, set, scheme, ref)
				for _, n := range []int{3, -1} {
					o := opts
					o.SamplingWorkers = n
					res, stats, err := ApxAnswersFromSetContext(ctx, set, scheme, o)
					sameRun(t, fmt.Sprintf("%s/SamplingWorkers=%d", tag, n), refRes, res, refStats, stats, refErr, err)
				}
				for _, w := range []int{1, 2, 3, 0} {
					res, stats, err := ApxAnswersParallelContext(ctx, set, scheme, opts, w)
					sameRun(t, fmt.Sprintf("%s/workers=%d", tag, w), refRes, res, refStats, stats, refErr, err)
				}
			}
		}
	}

	// A tuple-level run sums its workers' time per stage.
	_, stats, err := ApxAnswersParallelContext(ctx, many, KL, Options{Eps: 0.25, Delta: 0.3, Seed: 7}, 2)
	if err != nil {
		t.Fatal(err)
	}
	stages := map[string]bool{}
	for _, st := range stats.Stages {
		stages[st.Name] = true
	}
	if !stages["estimate"] || !stages["sampler.init."+sampler.SelectKernel(pairs[0].pair).String()] {
		t.Fatalf("tuple-level run reports stages %+v, want sampler.init.<kernel> and estimate", stats.Stages)
	}
}

// TestParallelSamplingSequentialUntouched pins the schedule boundary:
// SamplingWorkers 0 and 1 are the same sequential single-stream
// schedule (whose exact values testdata/kernel_golden.json locks), and
// the parallel schedule draws something else. Cover's parallel run
// draws tuple i from mt.New(tupleSeed(seed, i)), so its first tuple
// matches the sequential run (tupleSeed(seed, 0) = seed).
func TestParallelSamplingSequentialUntouched(t *testing.T) {
	set := goldenSet()
	for _, scheme := range Schemes {
		opts := Options{Eps: 0.25, Delta: 0.3, Seed: 11}
		seqRes, seqStats, seqErr := ApxAnswersFromSetContext(context.Background(), set, scheme, opts)
		if seqErr != nil {
			t.Fatalf("%v: %v", scheme, seqErr)
		}
		if seqStats.SamplingWorkers != 1 || seqStats.Chunks != 0 {
			t.Fatalf("%v: sequential stats report workers=%d chunks=%d, want 1 and 0",
				scheme, seqStats.SamplingWorkers, seqStats.Chunks)
		}

		one := opts
		one.SamplingWorkers = 1
		oneRes, oneStats, oneErr := ApxAnswersFromSetContext(context.Background(), set, scheme, one)
		sameRun(t, scheme.String()+"/workers=1", seqRes, oneRes, seqStats, oneStats, seqErr, oneErr)

		par := opts
		par.SamplingWorkers = 4
		parRes, parStats, parErr := ApxAnswersFromSetContext(context.Background(), set, scheme, par)
		if parErr != nil {
			t.Fatalf("%v: %v", scheme, parErr)
		}
		if parStats.SamplingWorkers != 4 {
			t.Fatalf("%v: parallel stats report workers=%d, want 4", scheme, parStats.SamplingWorkers)
		}
		if scheme == Cover {
			if parStats.Chunks != 0 {
				t.Fatalf("Cover: parallel stats report %d chunks, want 0", parStats.Chunks)
			}
			for i, e := range set.Entries {
				want, _, err := ApxRelativeFreq(e.Pair, Cover, opts, mt.New(tupleSeed(opts.Seed, i)))
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(parRes[i].Freq) != math.Float64bits(want) {
					t.Fatalf("Cover tuple %d: parallel estimate %v, want %v from mt.New(tupleSeed)", i, parRes[i].Freq, want)
				}
			}
			if math.Float64bits(parRes[0].Freq) != math.Float64bits(seqRes[0].Freq) {
				t.Fatalf("Cover tuple 0: parallel %v differs from sequential %v", parRes[0].Freq, seqRes[0].Freq)
			}
			continue
		}
		if parStats.Chunks <= 0 {
			t.Fatalf("%v: parallel stats report %d chunks, want > 0", scheme, parStats.Chunks)
		}
		// The substream schedule is a different stream than the
		// sequential one; identical results would mean the parallel
		// path silently fell back to sequential draws.
		differ := false
		for i := range seqRes {
			if math.Float64bits(seqRes[i].Freq) != math.Float64bits(parRes[i].Freq) {
				differ = true
			}
		}
		if !differ {
			t.Fatalf("%v: parallel-mode estimates identical to sequential for every tuple", scheme)
		}
	}
}

// TestParallelSamplingAutoWorkers checks the shared clamp: -1 resolves
// to GOMAXPROCS, exactly like workers <= 0 does for
// ApxAnswersParallelContext.
func TestParallelSamplingAutoWorkers(t *testing.T) {
	o := Options{SamplingWorkers: -1}
	if w, par := o.samplingPool(); !par || w != runtime.GOMAXPROCS(0) {
		t.Fatalf("samplingPool(-1) = (%d, %v), want (GOMAXPROCS=%d, true)", w, par, runtime.GOMAXPROCS(0))
	}
	for _, n := range []int{0, 1} {
		o := Options{SamplingWorkers: n}
		if w, par := o.samplingPool(); par || w != 1 {
			t.Fatalf("samplingPool(%d) = (%d, %v), want (1, false)", n, w, par)
		}
	}
	if w, par := (Options{SamplingWorkers: 5}).samplingPool(); !par || w != 5 {
		t.Fatalf("samplingPool(5) = (%d, %v), want (5, true)", w, par)
	}
}
