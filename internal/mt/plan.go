package mt

// Bounded is a uniform draw over [0, n) with Intn's rejection bound
// precomputed, so that a draw divides only for its remainder. Draw
// consumes the same words as Intn(n) and returns the same value.
type Bounded struct {
	n uint64
	// bound is Intn's rejection bound (2^64 / n)·n: words at or above it
	// are redrawn. It is 0 for a power of two, which masks instead.
	bound uint64
}

// NewBounded precomputes the draw over [0, n). It panics if n <= 0.
func NewBounded(n int) Bounded {
	if n <= 0 {
		panic("mt: NewBounded with non-positive n")
	}
	if n < len(smallBounded) {
		return smallBounded[n]
	}
	return newBounded(uint64(n))
}

// smallBounded holds the draws over [0, n) for small n. Block sizes and
// image counts are mostly small, and a lookup keeps the division
// newBounded costs out of sampler init, which runs once per tuple;
// BlockPlan steps read their draws from it directly.
var smallBounded = func() (t [256]Bounded) {
	for n := 1; n < len(t); n++ {
		t[n] = newBounded(uint64(n))
	}
	return t
}()

func newBounded(n uint64) Bounded {
	b := Bounded{n: n}
	if n&(n-1) != 0 {
		b.bound = (^uint64(0) / n) * n
	}
	return b
}

// Draw returns Intn(n) from src: the same words, the same value.
func (b *Bounded) Draw(src *Source) int {
	v := src.Uint64()
	if b.bound == 0 {
		return int(v & (b.n - 1))
	}
	for v >= b.bound {
		v = src.Uint64()
	}
	return int(v % b.n)
}

// BlockPlan is the per-pair draw plan FillBlocks follows: one step per
// block of size ≥ 2, each carrying the run of size-1 blocks before it,
// plus the run after the last step. A step's precomputed draw comes from
// the package-wide table for sizes below 256; only larger blocks carry
// their own, so building a plan for the many tiny pairs is one small
// allocation. It is immutable once built.
type BlockPlan struct {
	steps []planStep
	large []Bounded // the draws of blocks of size ≥ 256, in block order
	tail  int       // size-1 blocks after the last step
}

type planStep struct {
	skip uint32 // size-1 blocks before this block
	n    uint32 // the block's size; block sizes are int32
}

// NewBlockPlan builds the plan for blocks of the given sizes, each >= 1.
// O(len(sizes)); sampler constructors call it once per pair.
func NewBlockPlan(sizes []int32) BlockPlan {
	drawn := 0
	for _, sz := range sizes {
		if sz > 1 {
			drawn++
		}
	}
	p := BlockPlan{steps: make([]planStep, 0, drawn)}
	for _, sz := range sizes {
		if sz == 1 {
			p.tail++
			continue
		}
		p.steps = append(p.steps, planStep{skip: uint32(p.tail), n: uint32(sz)})
		if int(sz) >= len(smallBounded) {
			p.large = append(p.large, newBounded(uint64(sz)))
		}
		p.tail = 0
	}
	return p
}

// FillBlocks draws one uniform member per block, in block order, into
// dst: exactly the words and values of
//
//	for b, sz := range sizes { dst[b] = int32(s.Intn(int(sz))) }
//
// except that dst is not written for size-1 blocks, whose entry is
// always 0 (the caller keeps it so). A run of size-1 blocks advances the
// state index by its length: those words are consumed, never tempered.
func (s *Source) FillBlocks(p *BlockPlan, dst []int32) {
	i, b, l := s.index, 0, 0
	for _, st := range p.steps {
		i += int(st.skip)
		b += int(st.skip)
		for i >= nn {
			s.refill()
			i -= nn
		}
		x := temper(s.state[i])
		i++
		var u *Bounded
		if int(st.n) < len(smallBounded) {
			u = &smallBounded[st.n]
		} else {
			u = &p.large[l]
			l++
		}
		if u.bound == 0 {
			dst[b] = int32(x & (u.n - 1))
			b++
			continue
		}
		for x >= u.bound {
			if i >= nn {
				s.refill()
				i = 0
			}
			x = temper(s.state[i])
			i++
		}
		dst[b] = int32(x % u.n)
		b++
	}
	// Like Uint64, leave a spent state for the next draw to refill.
	i += p.tail
	for i > nn {
		s.refill()
		i -= nn
	}
	s.index = i
}
