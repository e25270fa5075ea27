package estimator

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"cqabench/internal/mt"
	"cqabench/internal/synopsis"
)

func identicalResult(t *testing.T, tag string, a, b Result, aErr, bErr error) {
	t.Helper()
	if (aErr == nil) != (bErr == nil) {
		t.Fatalf("%s: errors differ: %v vs %v", tag, aErr, bErr)
	}
	if aErr != nil && !errors.Is(bErr, ErrBudget) {
		t.Fatalf("%s: error %v does not wrap ErrBudget", tag, bErr)
	}
	if math.Float64bits(a.Estimate) != math.Float64bits(b.Estimate) {
		t.Fatalf("%s: estimates differ: %x vs %x (%v vs %v)", tag,
			math.Float64bits(a.Estimate), math.Float64bits(b.Estimate), a.Estimate, b.Estimate)
	}
	if a.Samples != b.Samples {
		t.Fatalf("%s: sample counts differ: %d vs %d", tag, a.Samples, b.Samples)
	}
	if a.Phases != b.Phases {
		t.Fatalf("%s: phase breakdowns differ: %v vs %v", tag, a.Phases, b.Phases)
	}
	if a.Chunks != b.Chunks {
		t.Fatalf("%s: chunk counts differ: %d vs %d", tag, a.Chunks, b.Chunks)
	}
}

// TestParallelWorkerInvariance is the substream schedule's core
// determinism property: for every kernel, shape, seed and budget
// (including budget-exhaustion error paths), MonteCarloParallel returns
// byte-identical Results — estimate, sample count, phase breakdown,
// chunk count — for every worker count, the inline one-worker run
// included. Run under -race in CI, this also exercises the scheduler's
// synchronization.
func TestParallelWorkerInvariance(t *testing.T) {
	pairs := map[string]*synopsis.Admissible{
		"small":     refPair(),
		"one-block": refOneBlock(),
		"one-image": refOneImage(),
	}
	seeds := []uint64{1, mt.DefaultSeed}
	budgets := []int64{0, 1, 37, 5000}
	workerCounts := []int{2, 4, 7}
	ctx := context.Background()
	for pname, pair := range pairs {
		for sname, mk := range refSamplers(pair) {
			for _, seed := range seeds {
				for _, max := range budgets {
					budget := Budget{MaxSamples: max}
					tag := pname + "/" + sname

					inline := Parallel{Seed: seed, Workers: 1, NewSampler: mk}
					mc1, mc1Err := MonteCarloParallel(ctx, inline, 0.25, 0.3, budget)

					// Re-running with the same configuration must be
					// byte-identical (bit-reproducibility).
					mc1b, mc1bErr := MonteCarloParallel(ctx, inline, 0.25, 0.3, budget)
					identicalResult(t, tag+"/rerun", mc1, mc1b, mc1Err, mc1bErr)

					for _, w := range workerCounts {
						p := Parallel{Seed: seed, Workers: w, NewSampler: mk}
						mc, mcErr := MonteCarloParallel(ctx, p, 0.25, 0.3, budget)
						identicalResult(t, tag+"/MonteCarlo", mc1, mc, mc1Err, mcErr)
					}
				}
			}
		}
	}
}

// substreamFold is the reference draw supply: draw j is the
// (j mod batchSize)-th value of mt.Substream(seed, j/batchSize), drawn
// one Sample call at a time on the caller's goroutine.
type substreamFold struct {
	s     Sampler
	seed  uint64
	src   mt.Source
	drawn int64
	buf   []float64
}

func (f *substreamFold) fill(n int) []float64 {
	f.buf = f.buf[:0]
	for i := 0; i < n; i++ {
		if f.drawn%batchSize == 0 {
			f.src.Substream(f.seed, uint64(f.drawn/batchSize))
		}
		f.buf = append(f.buf, f.s.Sample(&f.src))
		f.drawn++
	}
	return f.buf
}

// TestParallelMatchesManualSubstreamFold pins the substream schedule
// itself: a MonteCarloParallel run, inline or pooled, must see exactly
// the values of substreams 0, 1, 2, ... folded in chunk order, as
// computed by a single-threaded reference.
func TestParallelMatchesManualSubstreamFold(t *testing.T) {
	pair := refPair()
	mk := refSamplers(pair)["KLIndexed"]
	const seed = 9001
	ctx := context.Background()

	ref := &substreamFold{s: mk(), seed: seed}
	want, err := monteCarloLoop(ctx, ref, 0.25, 0.3, Budget{})
	if err != nil {
		t.Fatalf("reference fold: %v", err)
	}
	want.Chunks = (ref.drawn + batchSize - 1) / batchSize
	if want.Samples != ref.drawn {
		t.Fatalf("reference fold charged %d samples for %d draws", want.Samples, ref.drawn)
	}
	for _, w := range []int{1, 3} {
		res, err := MonteCarloParallel(ctx, Parallel{Seed: seed, Workers: w, NewSampler: mk}, 0.25, 0.3, Budget{})
		identicalResult(t, fmt.Sprintf("workers=%d", w), want, res, nil, err)
	}
}

// TestParallelValidate covers MonteCarloParallel's rejection paths.
func TestParallelValidate(t *testing.T) {
	pair := refPair()
	mk := refSamplers(pair)["KL"]
	ctx := context.Background()
	cases := []struct {
		name string
		p    Parallel
	}{
		{"zero-workers", Parallel{Seed: 1, Workers: 0, NewSampler: mk}},
		{"negative-workers", Parallel{Seed: 1, Workers: -3, NewSampler: mk}},
		{"nil-factory", Parallel{Seed: 1, Workers: 2}},
		{"nil-factory-inline", Parallel{Seed: 1, Workers: 1}},
	}
	for _, c := range cases {
		if _, err := MonteCarloParallel(ctx, c.p, 0.25, 0.3, Budget{}); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("%s: MonteCarloParallel error %v, want ErrInvalidOptions", c.name, err)
		}
	}
	if _, err := MonteCarloParallel(ctx, Parallel{Seed: 1, Workers: 2, NewSampler: mk}, 1.5, 0.3, Budget{}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("bad eps: error %v, want ErrInvalidOptions", err)
	}
}

// TestParallelCancellation checks that the scheduler unwinds cleanly
// when the caller's context dies: pre-canceled contexts abort before
// drawing, and mid-run cancellation surfaces as ErrCanceled without
// deadlocking the pool (the zero-chunk fallback in advance).
func TestParallelCancellation(t *testing.T) {
	pair := refPair()
	mk := refSamplers(pair)["KLM"]

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range []int{1, 4} {
		res, err := MonteCarloParallel(canceled, Parallel{Seed: 5, Workers: w, NewSampler: mk}, 0.25, 0.3, Budget{})
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("pre-canceled, workers=%d: error %v, want ErrCanceled", w, err)
		}
		if res.Samples != 0 {
			t.Fatalf("pre-canceled, workers=%d: %d samples drawn, want 0", w, res.Samples)
		}
	}

	ctx, cancelMid := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancelMid()
	}()
	// A very tight eps makes the run long enough that cancellation lands
	// mid-flight on any hardware; if the run finishes first the estimate
	// is simply valid and the test passes vacuously.
	_, err := MonteCarloParallel(ctx, Parallel{Seed: 5, Workers: 4, NewSampler: mk}, 0.005, 0.01, Budget{})
	if err != nil && !errors.Is(err, ErrCanceled) {
		t.Fatalf("mid-run cancel: error %v, want ErrCanceled (or nil if finished)", err)
	}
	cancelMid()
}
