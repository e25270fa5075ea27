package mt

import (
	"math"
	"testing"
)

// intnBlocks is the per-block draw FillBlocks replaces, verbatim.
func intnBlocks(s *Source, sizes []int32, dst []int32) {
	for b, sz := range sizes {
		dst[b] = int32(s.Intn(int(sz)))
	}
}

// randomSizes returns n block sizes mixing size 1 (often in runs),
// small powers of two, small odd sizes, sizes either side of the shared
// table's end (256) and sizes up to 2^31 − 1, whose rejection bound
// rejects words far more often than small sizes do.
func randomSizes(g *Source, n int) []int32 {
	sizes := make([]int32, n)
	for i := range sizes {
		switch g.Intn(7) {
		case 0, 1:
			sizes[i] = 1
		case 2:
			sizes[i] = 1 << g.Intn(31)
		case 3:
			sizes[i] = int32(2 + g.Intn(15))
		case 4:
			sizes[i] = int32(1 + g.Intn(math.MaxInt32))
		case 5:
			sizes[i] = int32(len(smallBounded) - 4 + g.Intn(9))
		default:
			sizes[i] = math.MaxInt32 - int32(g.Intn(1<<20))
		}
	}
	return sizes
}

// TestFillBlocksMatchesIntn: the plan writes what per-block Intn writes
// (size-1 entries stay 0) and leaves the stream at the same position,
// across every refill boundary: vectors long enough to span several
// refills, long runs of size-1 blocks, and many plans in a row.
func TestFillBlocksMatchesIntn(t *testing.T) {
	g := New(2024)
	for trial := 0; trial < 300; trial++ {
		n := 1 + g.Intn(40)
		if trial%10 == 0 {
			n = 1 + g.Intn(1500)
		}
		sizes := randomSizes(g, n)
		if trial%7 == 0 { // a run of size-1 blocks longer than the state
			for i := 0; i < n && i < 700; i++ {
				sizes[i] = 1
			}
		}
		plan := NewBlockPlan(sizes)
		seed := g.Uint64()
		want, got := make([]int32, n), make([]int32, n)
		ref, s := New(seed), New(seed)
		for rep := 0; rep < 5; rep++ {
			intnBlocks(ref, sizes, want)
			s.FillBlocks(&plan, got)
			for b := range want {
				if sizes[b] == 1 {
					if got[b] != 0 {
						t.Fatalf("trial %d: size-1 block %d written: %d", trial, b, got[b])
					}
					continue
				}
				if want[b] != got[b] {
					t.Fatalf("trial %d rep %d block %d (size %d): plan %d, Intn %d",
						trial, rep, b, sizes[b], got[b], want[b])
				}
			}
			if ref.index != s.index {
				t.Fatalf("trial %d rep %d: stream index %d, Intn leaves %d", trial, rep, s.index, ref.index)
			}
		}
		for i := 0; i < 4; i++ {
			if a, b := ref.Uint64(), s.Uint64(); a != b {
				t.Fatalf("trial %d: next words differ: %x vs %x", trial, a, b)
			}
		}
	}
}

// TestFillBlocksAllSingleton: a plan with no step still consumes one
// word per block, refilling as Intn would.
func TestFillBlocksAllSingleton(t *testing.T) {
	for _, n := range []int{0, 1, 311, 312, 313, 624, 1000} {
		sizes := make([]int32, n)
		for i := range sizes {
			sizes[i] = 1
		}
		ref, s := New(9), New(9)
		dst := make([]int32, n)
		for rep := 0; rep < 3; rep++ {
			intnBlocks(ref, sizes, dst)
			plan := NewBlockPlan(sizes)
			s.FillBlocks(&plan, dst)
		}
		if a, b := ref.Uint64(), s.Uint64(); a != b {
			t.Fatalf("%d size-1 blocks: next words differ: %x vs %x", n, a, b)
		}
	}
}

// TestBoundedMatchesIntn: Bounded.Draw is Intn, value for value and word
// for word, for powers of two, odd and even sizes, and sizes near 2^63
// where half of all words are rejected.
func TestBoundedMatchesIntn(t *testing.T) {
	ns := []int{1, 2, 3, 4, 5, 6, 7, 8, 12, 1000, 1 << 20, math.MaxInt32, 1<<62 + 1, math.MaxInt64}
	for _, n := range ns {
		b := NewBounded(n)
		ref, s := New(uint64(n)), New(uint64(n))
		for i := 0; i < 2000; i++ {
			if want, got := ref.Intn(n), b.Draw(s); want != got {
				t.Fatalf("n=%d draw %d: Bounded %d, Intn %d", n, i, got, want)
			}
		}
		if a, c := ref.Uint64(), s.Uint64(); a != c {
			t.Fatalf("n=%d: streams diverged", n)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewBounded(0) did not panic")
		}
	}()
	NewBounded(0)
}

// smokeBlockSizes is the smoke Boolean pair's block histogram
// {1: 147, 2: 24, 3: 21, 4: 26, 5: 28}, in a fixed shuffled order.
func smokeBlockSizes() []int32 {
	var sizes []int32
	for _, h := range []struct{ size, count int32 }{{1, 147}, {2, 24}, {3, 21}, {4, 26}, {5, 28}} {
		for i := int32(0); i < h.count; i++ {
			sizes = append(sizes, h.size)
		}
	}
	New(DefaultSeed).Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	return sizes
}

// BenchmarkFillBlocks: one database's block draws on the smoke pair's
// block histogram, by the plan and by per-block Intn.
func BenchmarkFillBlocks(b *testing.B) {
	sizes := smokeBlockSizes()
	dst := make([]int32, len(sizes))
	b.Run("plan", func(b *testing.B) {
		plan := NewBlockPlan(sizes)
		s := New(1)
		for i := 0; i < b.N; i++ {
			s.FillBlocks(&plan, dst)
		}
	})
	b.Run("intn", func(b *testing.B) {
		s := New(1)
		for i := 0; i < b.N; i++ {
			intnBlocks(s, sizes, dst)
		}
	})
}

func BenchmarkBoundedDraw(b *testing.B) {
	u := NewBounded(757)
	s := New(1)
	sum := 0
	for i := 0; i < b.N; i++ {
		sum += u.Draw(s)
	}
	_ = sum
}

// TestAliasDrawMatchesIntn: Alias.Draw picks its column through Bounded
// and still consumes the words of its former Intn-based draw, verbatim.
func TestAliasDrawMatchesIntn(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 757} {
		w := make([]float64, n)
		for i := range w {
			w[i] = float64(1 + i%5)
		}
		a := NewAlias(w)
		ref, s := New(3), New(3)
		for d := 0; d < 3000; d++ {
			i := ref.Intn(len(a.prob))
			if ref.Float64() >= a.prob[i] {
				i = int(a.alias[i])
			}
			if got := a.Draw(s); got != i {
				t.Fatalf("n=%d draw %d: %d, reference %d", n, d, got, i)
			}
		}
		if ref.Uint64() != s.Uint64() {
			t.Fatalf("n=%d: streams diverged", n)
		}
	}
}
