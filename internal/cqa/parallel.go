package cqa

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"cqabench/internal/mt"
	"cqabench/internal/obs"
	"cqabench/internal/synopsis"
)

// The two-schedule contract (stated in full in docs/ARCHITECTURE.md):
//
//   - Sequential (Options.SamplingWorkers 0 or 1): the tuples run in
//     order, all drawing from one mt.New(seed) stream.
//   - Parallel (every other SamplingWorkers value, and
//     ApxAnswersParallelContext for every pool size): tuple i is rooted
//     at tupleSeed(seed, i). Natural, KL and KLM draw chunk k from
//     mt.Substream(root, k); Cover draws from mt.New(root).
//
// A parallel run has one pool, and apxAnswers picks its fan-out from
// the set: over tuples, or over one tuple's chunks. Estimates, Samples,
// Chunks and budget errors are the same for every pool size and either
// fan-out. Both schedules fail fast: a failed run reports the error of
// its first failing tuple i and the counts of tuples 0..i.

// poolWorkers is the single worker-count clamp: non-positive requests
// select GOMAXPROCS; the result is always ≥ 1.
func poolWorkers(requested int) int {
	if requested <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// tupleSeed derives tuple i's root seed from the run seed: a golden-
// ratio stride keeps per-tuple substream families disjoint and
// deterministic. tupleSeed(seed, 0) = seed, so a one-tuple parallel run
// is rooted at the run seed itself.
func tupleSeed(seed uint64, i int) uint64 {
	return seed + uint64(i)*0x9E3779B97F4A7C15
}

// ApxAnswersParallelContext runs the parallel schedule on one pool of
// workers (workers <= 0 selects GOMAXPROCS), whatever
// opts.SamplingWorkers says. It equals ApxAnswersFromSetContext with
// SamplingWorkers ≥ 2 bit for bit (the two-schedule contract above).
// Every worker polls ctx at its estimator's chunk boundaries, and no
// tuple starts after one has failed, so a canceled run drains within
// about one chunk per worker.
func ApxAnswersParallelContext(ctx context.Context, set *synopsis.Set, scheme Scheme, opts Options, workers int) ([]TupleFreq, Stats, error) {
	return apxAnswers(ctx, set, scheme, opts, poolWorkers(workers), true)
}

// apxAnswers is the one tuple loop behind both entry points: the
// sequential schedule when parallel is false, else the parallel
// schedule on a pool of the given size. The pool fans out over tuples
// when the set has at least pool tuples or the scheme is Cover, whose
// draws cannot be split; each tuple then computes its chunks inline.
// Otherwise the tuples run in order and the pool fans out over each
// tuple's chunks.
func apxAnswers(ctx context.Context, set *synopsis.Set, scheme Scheme, opts Options, pool int, parallel bool) ([]TupleFreq, Stats, error) {
	if err := opts.Validate(); err != nil {
		return nil, Stats{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	root := obs.FromContext(ctx).StartChild("cqa." + scheme.String())
	if root == nil {
		root = obs.NewSpan("cqa." + scheme.String())
	}
	n := len(set.Entries)
	// tupleWorkers fan out over tuples, drawWorkers over one tuple's
	// chunks; drawWorkers 0 selects the shared sequential stream.
	var shared *mt.Source
	tupleWorkers, drawWorkers := 1, 0
	switch {
	case !parallel:
		shared = mt.New(opts.Seed)
	case scheme == Cover || n >= pool:
		tupleWorkers, drawWorkers = max(1, min(pool, n)), 1
	default:
		drawWorkers = pool
	}
	results := make([]tupleResult, n)
	errs := make([]error, n)
	forEachTuple(n, tupleWorkers, func(i int) bool {
		o := opts
		o.Convergence.Enabled = opts.Convergence.records(i)
		seed := tupleSeed(opts.Seed, i)
		src := shared
		if src == nil && scheme == Cover {
			src = mt.New(seed)
		}
		results[i], errs[i] = apxRelativeFreq(ctx, set.Entries[i].Pair, scheme, o, src, seed, drawWorkers, root)
		return errs[i] == nil
	})
	root.End()

	stats := Stats{
		Elapsed:         root.Duration(),
		NumTuples:       n,
		SamplingWorkers: tupleWorkers * max(1, drawWorkers),
		Stages:          root.Stages(),
	}
	out := make([]TupleFreq, n)
	var goodSum float64 // per-tuple good ratios weighted by sample count
	var err error
	for i, res := range results {
		stats.Samples += res.samples
		stats.Chunks += res.chunks
		goodSum += res.good * float64(res.samples)
		if res.trajectory != nil {
			stats.Convergence = append(stats.Convergence, TupleTrajectory{Tuple: i, Points: res.trajectory})
		}
		if errs[i] != nil {
			err = fmt.Errorf("cqa: tuple %d: %w", i, errs[i])
			break
		}
		out[i] = TupleFreq{Tuple: set.Entries[i].Tuple, Freq: res.freq}
	}
	if stats.Samples > 0 {
		stats.GoodRatio = goodSum / float64(stats.Samples)
	}
	recordRunMetrics(scheme, stats, err)
	if err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}

// forEachTuple calls estimate(i) for i = 0..n-1 on a pool of workers,
// claiming tuples in index order, and claims no tuple after a call
// returns false. Every tuple below the first failing one has therefore
// run, whichever worker ran it. One worker runs on the caller's
// goroutine.
func forEachTuple(n, workers int, estimate func(i int) bool) {
	if workers == 1 {
		for i := 0; i < n && estimate(i); i++ {
		}
		return
	}
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if !estimate(i) {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
}
