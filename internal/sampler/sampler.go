// Package sampler implements the paper's three randomized samplers over an
// admissible pair (H, B) (Section 4.2):
//
//   - Natural (Sampler 1) draws a database I uniformly from the natural
//     sampling space db(B) and reports whether some image covers it;
//     it is 1-good (Lemma 4.3).
//   - KL (Sampler 2) draws (i, I) uniformly from the symbolic space S• and
//     reports whether i is the first image covering I; it is
//     (|db(B)|/|S•|)-good (Lemma 4.5).
//   - KLM (Sampler 3) draws from the same space and reports 1/k where k is
//     the number of images covering I; same goodness, lower variance,
//     higher per-sample cost (Lemma 4.7).
//
// Every sampler exists in two kernels with identical distribution and
// identical MT19937-64 stream consumption: the plain scan over the flat
// image layout (this file) and a first-member index-accelerated variant
// (indexed.go). SelectKernel picks between them from synopsis shape.
// All kernels implement batched drawing (SampleBatch) with tight,
// allocation-free inner loops; a batch of n draws is byte-identical to n
// one-at-a-time Sample calls on the same stream.
//
// Each sampler builds its pair's draw plan once, at construction: an
// mt.BlockPlan that fills a database with one uniform member per block,
// and a coverage layout (synopsis.FlatImages) without members in size-1
// blocks. The plan consumes exactly the words per-block Intn would, in
// the same order: a size-1 block still consumes its word, untempered,
// and its entry stays 0; every other block's rejection bound is
// precomputed. Stream consumption, and hence every estimate, is
// unchanged by the plan.
//
// The plain KLM kernel must count every covering image, so instead of
// checking all |H| images per draw it builds a kill index
// (synopsis.KillIndex) from the layout: per block and kept member, the
// images that choice excludes, as masks over an |H|-bit set. A draw ORs
// the kept members' masks and counts k = |H| − popcount; with one image,
// k is 1 and no index is built.
//
// All samplers reuse internal scratch buffers: one instance serves one
// estimation loop at a time.
package sampler

import (
	"cqabench/internal/mt"
	"cqabench/internal/synopsis"
)

// Natural is Sampler 1: SampleNatural.
type Natural struct {
	plan   mt.BlockPlan
	flat   synopsis.FlatImages
	chosen []int32
}

// NewNatural returns a natural-space sampler for the pair, which must be
// admissible (Validate'd by the caller; the synopsis builder guarantees it).
func NewNatural(pair *synopsis.Admissible) *Natural {
	return &Natural{
		plan:   mt.NewBlockPlan(pair.BlockSizes),
		flat:   pair.Flatten(),
		chosen: make([]int32, pair.NumBlocks()),
	}
}

// Sample draws I ∈ db(B) uniformly and returns 1 if some H ∈ H satisfies
// H ⊆ I, else 0. Its expected value is exactly R(H,B).
func (n *Natural) Sample(src *mt.Source) float64 { return n.sample(src) }

// sample is the concrete (devirtualized) draw shared by Sample and
// SampleBatch.
func (n *Natural) sample(src *mt.Source) float64 {
	src.FillBlocks(&n.plan, n.chosen)
	if n.flat.FirstCover(n.chosen) >= 0 {
		return 1
	}
	return 0
}

// SampleBatch fills dst with len(dst) consecutive draws.
func (n *Natural) SampleBatch(src *mt.Source, dst []float64) {
	for i := range dst {
		dst[i] = n.sample(src)
	}
}

// GoodFactor returns the r for which the sampler is r-good: 1.
func (n *Natural) GoodFactor() float64 { return 1 }

// Symbolic holds the shared machinery for sampling (i, I) uniformly from
// the symbolic space S• = {(i, I) : I ∈ I^i}: image i is drawn with
// probability |I^i|/|S•| via a Walker alias table, then I uniformly from
// I^i by fixing H_i's members and choosing the remaining blocks uniformly.
type Symbolic struct {
	plan   mt.BlockPlan
	flat   synopsis.FlatImages
	alias  *mt.Alias
	weight float64 // |S•| / |db(B)|
	chosen []int32
}

// NewSymbolic prepares the symbolic sampling space for the pair.
func NewSymbolic(pair *synopsis.Admissible) *Symbolic {
	s := newSymbolic(pair)
	return &s
}

// newSymbolic builds the space by value, so that the samplers built on
// it hold it in their own allocation.
func newSymbolic(pair *synopsis.Admissible) Symbolic {
	// The alias table keeps none of the weights: small pairs, most of a
	// run's tuples, keep them off the heap.
	var buf [32]float64
	var weights []float64
	if n := pair.NumImages(); n <= len(buf) {
		weights = buf[:n]
	} else {
		weights = make([]float64, n)
	}
	// Summed in image order, the weights give SymbolicWeight's value.
	var weight float64
	for i := range weights {
		weights[i] = pair.ImageWeight(i)
		weight += weights[i]
	}
	return Symbolic{
		plan:   mt.NewBlockPlan(pair.BlockSizes),
		flat:   pair.Flatten(),
		alias:  mt.NewAlias(weights),
		weight: weight,
		chosen: make([]int32, pair.NumBlocks()),
	}
}

// Draw samples (i, I) uniformly from S•, leaving the drawn pair as the
// sampler's current state, and returns i.
func (s *Symbolic) Draw(src *mt.Source) int {
	i := s.alias.Draw(src)
	src.FillBlocks(&s.plan, s.chosen)
	for _, m := range s.flat.Image(i) {
		s.chosen[m.Block] = m.Fact
	}
	return i
}

// InSet reports whether the current I lies in I^j (i.e. H_j ⊆ I).
func (s *Symbolic) InSet(j int) bool {
	return s.flat.Covers(j, s.chosen)
}

// NumImages returns |H|.
func (s *Symbolic) NumImages() int { return s.flat.NumImages() }

// Weight returns |S•| / |db(B)|: the factor converting estimates over the
// symbolic space into R(H,B) (Algorithms 4 and 5 use its reciprocal and
// itself respectively; we keep everything as ratios of |db(B)| so nothing
// overflows).
func (s *Symbolic) Weight() float64 { return s.weight }

// KL is Sampler 2: SampleKL.
type KL struct {
	Symbolic
}

// NewKL returns the Karp–Luby sampler for the pair.
func NewKL(pair *synopsis.Admissible) *KL {
	return &KL{newSymbolic(pair)}
}

// Sample draws (i, I) from S• and returns 1 iff no j < i has H_j ⊆ I.
// Its expected value is Num/|S•| = R(H,B) · |db(B)|/|S•|.
func (k *KL) Sample(src *mt.Source) float64 { return k.sample(src) }

func (k *KL) sample(src *mt.Source) float64 {
	i := k.Draw(src)
	for j := 0; j < i; j++ {
		if k.flat.Covers(j, k.chosen) {
			return 0
		}
	}
	return 1
}

// SampleBatch fills dst with len(dst) consecutive draws.
func (k *KL) SampleBatch(src *mt.Source, dst []float64) {
	for i := range dst {
		dst[i] = k.sample(src)
	}
}

// GoodFactor returns |db(B)|/|S•|.
func (k *KL) GoodFactor() float64 { return 1 / k.weight }

// KLM is Sampler 3: SampleKLM. It counts the covering images with a
// kill index over the coverage layout instead of checking every image.
// A pair with one image, most of a run's tuples, needs no index: every
// draw holds that image, and only it.
type KLM struct {
	Symbolic
	kill synopsis.KillIndex
}

// NewKLM returns the Karp–Luby–Madras sampler for the pair.
func NewKLM(pair *synopsis.Admissible) *KLM {
	k := &KLM{Symbolic: newSymbolic(pair)}
	if pair.NumImages() > 1 {
		k.kill.Init(&k.flat, pair.NumBlocks())
	}
	return k
}

// Sample draws (i, I) from S• and returns 1/k with k = |{j : H_j ⊆ I}|
// (k ≥ 1 since H_i ⊆ I by construction). Its expected value equals KL's.
func (k *KLM) Sample(src *mt.Source) float64 { return k.sample(src) }

func (k *KLM) sample(src *mt.Source) float64 {
	k.Draw(src)
	if k.NumImages() == 1 {
		return 1
	}
	return 1 / float64(k.kill.CoverCount(k.chosen))
}

// SampleBatch fills dst with len(dst) consecutive draws.
func (k *KLM) SampleBatch(src *mt.Source, dst []float64) {
	for i := range dst {
		dst[i] = k.sample(src)
	}
}

// GoodFactor returns |db(B)|/|S•|.
func (k *KLM) GoodFactor() float64 { return 1 / k.weight }
