package cqa

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"cqabench/internal/mt"
	"cqabench/internal/synopsis"
)

// poolWorkers is the single worker-count clamp every pool in the
// package goes through: the tuple-parallel pool (ApxAnswersParallel)
// and the intra-query sampling pool (Options.SamplingWorkers, resolved
// by Options.samplingPool). Non-positive requests select GOMAXPROCS;
// the result is always ≥ 1.
func poolWorkers(requested int) int {
	if requested <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// tupleSeed derives tuple i's root seed from the run seed: a golden-
// ratio stride keeps per-tuple streams (and, in parallel sampling mode,
// per-tuple substream families) disjoint and deterministic. Both the
// tuple-parallel pool and the sequential loop's parallel-sampling mode
// use it, which is why ApxAnswersFromSet and ApxAnswersParallel agree
// tuple-for-tuple in parallel sampling mode.
func tupleSeed(seed uint64, i int) uint64 {
	return seed + uint64(i)*0x9E3779B97F4A7C15
}

// ApxAnswersParallel is ApxAnswersFromSet with the per-tuple estimations
// fanned out over a worker pool — the parallel sampling phase the paper's
// appendix points out needs no synchronization: tuples' synopses are
// independent and each worker owns a private MT19937-64 stream (seeded
// deterministically per tuple, so results are reproducible regardless of
// scheduling). workers <= 0 selects GOMAXPROCS (the poolWorkers clamp).
func ApxAnswersParallel(set *synopsis.Set, scheme Scheme, opts Options, workers int) ([]TupleFreq, Stats, error) {
	return ApxAnswersParallelContext(context.Background(), set, scheme, opts, workers)
}

// ApxAnswersParallelContext is ApxAnswersParallel with cooperative
// cancellation: every worker polls ctx at its estimator's chunk
// boundaries, and tuples not yet started when ctx is canceled abort
// before their first draw, so the pool drains within about one chunk per
// worker. Results of uncancelled runs are bit-identical to
// ApxAnswersParallel for any worker count.
func ApxAnswersParallelContext(ctx context.Context, set *synopsis.Set, scheme Scheme, opts Options, workers int) ([]TupleFreq, Stats, error) {
	if err := opts.Validate(); err != nil {
		return nil, Stats{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers = poolWorkers(workers)
	start := time.Now()
	n := len(set.Entries)
	out := make([]TupleFreq, n)
	results := make([]tupleResult, n)
	errs := make([]error, n)

	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				e := &set.Entries[i]
				// Deterministic per-tuple stream: the same tuple always
				// sees the same randomness, whatever the worker count. The
				// root seed doubles as the tuple's substream-family root in
				// parallel sampling mode.
				root := tupleSeed(opts.Seed, i)
				src := mt.New(root)
				o := opts
				o.Convergence.Enabled = opts.Convergence.records(i)
				res, err := apxRelativeFreq(ctx, e.Pair, scheme, o, src, root, nil)
				out[i] = TupleFreq{Tuple: e.Tuple, Freq: res.freq}
				results[i] = res
				errs[i] = err
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()

	var stats Stats
	stats.SamplingWorkers = 1
	if w, par := opts.samplingPool(); par && scheme != Cover {
		stats.SamplingWorkers = w
	}
	var goodSum float64
	var firstErr error
	firstErrTuple := -1
	for i := 0; i < n; i++ {
		stats.Samples += results[i].samples
		stats.Chunks += results[i].chunks
		goodSum += results[i].good * float64(results[i].samples)
		if results[i].trajectory != nil {
			// Collected in index order, matching the sequential path.
			stats.Convergence = append(stats.Convergence, TupleTrajectory{Tuple: i, Points: results[i].trajectory})
		}
		if errs[i] != nil && firstErr == nil {
			firstErr, firstErrTuple = errs[i], i
		}
	}
	stats.Elapsed = time.Since(start)
	stats.NumTuples = n
	if stats.Samples > 0 {
		stats.GoodRatio = goodSum / float64(stats.Samples)
	}
	// Per-worker wall times overlap, so no Stages here (see Stats).
	recordRunMetrics(scheme, stats, firstErr)
	if firstErr != nil {
		return nil, stats, fmt.Errorf("cqa: tuple %d: %w", firstErrTuple, firstErr)
	}
	return out, stats, nil
}
