package cqa

import (
	"context"
	"errors"
	"math"
	"testing"

	"cqabench/internal/cq"
	"cqabench/internal/estimator"
	"cqabench/internal/synopsis"
)

func TestParallelMatchesAccuracy(t *testing.T) {
	db := employeeDB(t)
	q := cq.MustParse("Q(n) :- Employee(i, n, 'IT')", db.Dict)
	set, err := synopsis.Build(db, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range Schemes {
		res, stats, err := ApxAnswersParallelContext(context.Background(), set, scheme, DefaultOptions(), 4)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if len(res) != 3 || stats.NumTuples != 3 || stats.Samples == 0 {
			t.Fatalf("%v: res=%d stats=%+v", scheme, len(res), stats)
		}
		for _, tf := range res {
			if math.Abs(tf.Freq-0.5) > 0.08 && math.Abs(tf.Freq-1) > 0.08 {
				t.Fatalf("%v: freq %v far from any exact value", scheme, tf.Freq)
			}
		}
	}
}

func TestParallelDeterministicAcrossWorkerCounts(t *testing.T) {
	db := employeeDB(t)
	q := cq.MustParse("Q(n) :- Employee(i, n, d)", db.Dict)
	set, err := synopsis.Build(db, q)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	one, _, err := ApxAnswersParallelContext(context.Background(), set, KLM, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	eight, _, err := ApxAnswersParallelContext(context.Background(), set, KLM, opts, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != len(eight) {
		t.Fatal("result lengths differ")
	}
	for i := range one {
		if !one[i].Tuple.Equal(eight[i].Tuple) || one[i].Freq != eight[i].Freq {
			t.Fatalf("tuple %d differs across worker counts: %v vs %v", i, one[i], eight[i])
		}
	}
}

func TestParallelPreservesTupleOrder(t *testing.T) {
	db := employeeDB(t)
	q := cq.MustParse("Q(n) :- Employee(i, n, d)", db.Dict)
	set, err := synopsis.Build(db, q)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := ApxAnswersParallelContext(context.Background(), set, Natural, DefaultOptions(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if !res[i].Tuple.Equal(set.Entries[i].Tuple) {
			t.Fatal("parallel results out of order")
		}
	}
}

func TestParallelBudgetError(t *testing.T) {
	db := employeeDB(t)
	q := cq.MustParse("Q(n) :- Employee(i, n, d)", db.Dict)
	set, err := synopsis.Build(db, q)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Budget = estimator.Budget{MaxSamples: 2}
	_, stats, err := ApxAnswersParallelContext(context.Background(), set, Natural, opts, 4)
	if !errors.Is(err, estimator.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	// The failed run's stats must still carry the tuple count, so
	// recordRunMetrics and callers see it on the error path too.
	if stats.NumTuples != len(set.Entries) {
		t.Fatalf("NumTuples = %d on error path, want %d", stats.NumTuples, len(set.Entries))
	}
}

func TestParallelDefaultWorkerCount(t *testing.T) {
	db := employeeDB(t)
	q := cq.MustParse("Q() :- Employee(1, n, d)", db.Dict)
	set, err := synopsis.Build(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ApxAnswersParallelContext(context.Background(), set, KL, DefaultOptions(), 0); err != nil {
		t.Fatal(err)
	}
}
