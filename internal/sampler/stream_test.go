package sampler

import (
	"testing"
	"testing/quick"

	"cqabench/internal/mt"
	"cqabench/internal/synopsis"
)

// refSampler is a verbatim copy of the per-block Intn draw every kernel
// made before draw plans: Natural's loop and Symbolic.Draw, with coverage
// checked on the full images. The kernels must match it draw for draw
// and leave the stream where it leaves it; the plain-vs-indexed property
// tests cannot catch a stream shift both kernels share.
type refSampler struct {
	pair   *synopsis.Admissible
	alias  *mt.Alias
	chosen []int32
}

func newRefSampler(pair *synopsis.Admissible) *refSampler {
	weights := make([]float64, pair.NumImages())
	for i := range weights {
		weights[i] = pair.ImageWeight(i)
	}
	return &refSampler{pair: pair, alias: mt.NewAlias(weights), chosen: make([]int32, pair.NumBlocks())}
}

func (r *refSampler) fill(src *mt.Source) {
	for b, sz := range r.pair.BlockSizes {
		r.chosen[b] = int32(src.Intn(int(sz)))
	}
}

func (r *refSampler) natural(src *mt.Source) float64 {
	r.fill(src)
	if r.pair.FirstCover(r.chosen) >= 0 {
		return 1
	}
	return 0
}

func (r *refSampler) draw(src *mt.Source) int {
	i := r.alias.Draw(src)
	r.fill(src)
	for _, m := range r.pair.Images[i] {
		r.chosen[m.Block] = m.Fact
	}
	return i
}

func (r *refSampler) kl(src *mt.Source) float64 {
	i := r.draw(src)
	for j := 0; j < i; j++ {
		if r.pair.Covers(j, r.chosen) {
			return 0
		}
	}
	return 1
}

func (r *refSampler) klm(src *mt.Source) float64 {
	r.draw(src)
	return 1 / float64(r.pair.CoverCount(r.chosen))
}

// matchesReference runs every kernel and Cover's Draw/InSet against the
// reference for draws draws and reports the first difference.
func matchesReference(pair *synopsis.Admissible, seed uint64, draws int) string {
	kernels := []struct {
		name string
		s    batchSampler
		ref  func(*refSampler, *mt.Source) float64
	}{
		{"Natural", NewNatural(pair), (*refSampler).natural},
		{"NaturalIndexed", NewNaturalIndexed(pair), (*refSampler).natural},
		{"KL", NewKL(pair), (*refSampler).kl},
		{"KLIndexed", NewKLIndexed(pair), (*refSampler).kl},
		{"KLM", NewKLM(pair), (*refSampler).klm},
		{"KLMIndexed", NewKLMIndexed(pair), (*refSampler).klm},
	}
	for _, k := range kernels {
		ref := newRefSampler(pair)
		want, got := mt.New(seed), mt.New(seed)
		// Half the draws one at a time, half batched.
		for i := 0; i < draws/2; i++ {
			if a, b := k.ref(ref, want), k.s.Sample(got); a != b {
				return k.name + ": Sample differs from the reference"
			}
		}
		batch := make([]float64, draws-draws/2)
		k.s.SampleBatch(got, batch)
		for _, b := range batch {
			if k.ref(ref, want) != b {
				return k.name + ": SampleBatch differs from the reference"
			}
		}
		if want.Uint64() != got.Uint64() {
			return k.name + ": stream position differs from the reference"
		}
	}

	// Cover reads the space through Draw and InSet.
	ref, sym := newRefSampler(pair), NewSymbolic(pair)
	want, got := mt.New(seed), mt.New(seed)
	for d := 0; d < draws; d++ {
		if ref.draw(want) != sym.Draw(got) {
			return "Cover: Draw differs from the reference"
		}
		for j := 0; j < pair.NumImages(); j++ {
			if pair.Covers(j, ref.chosen) != sym.InSet(j) {
				return "Cover: InSet differs from the reference"
			}
		}
	}
	if want.Uint64() != got.Uint64() {
		return "Cover: stream position differs from the reference"
	}
	return ""
}

// TestKernelsMatchIntnReference pins the stream: on fixed pairs with and
// without size-1 blocks, and on random pairs mixing size-1,
// power-of-two and odd blocks, every kernel draws what per-block Intn
// draws and consumes the same words. The random pairs also pin KLM's
// kill-index count to the reference's CoverCount on one-, two- and
// three-word image sets, anonymous members and images lying wholly in
// size-1 blocks.
func TestKernelsMatchIntnReference(t *testing.T) {
	singletons := &synopsis.Admissible{
		BlockSizes: []int32{1, 3, 1, 1, 4, 1, 5, 1},
		Images: []synopsis.Image{
			{{Block: 0, Fact: 0}, {Block: 1, Fact: 2}},
			{{Block: 1, Fact: 0}, {Block: 4, Fact: 3}, {Block: 5, Fact: 0}},
			{{Block: 2, Fact: 0}, {Block: 3, Fact: 0}, {Block: 7, Fact: 0}},
			{{Block: 4, Fact: 1}, {Block: 6, Fact: 4}},
			{{Block: 6, Fact: 0}},
		},
	}
	singletons.Canonicalize()
	if err := singletons.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, pair := range map[string]*synopsis.Admissible{
		"small": testPair(t), "singletons": singletons, "huge": hugePair(),
	} {
		if msg := matchesReference(pair, 7, 600); msg != "" {
			t.Fatalf("%s pair: %s", name, msg)
		}
	}
	var sawWholly, sawAnonymous, saw64, saw65, sawOver128 bool
	f := func(seed []byte) bool {
		pair := pairFromSeed(seed)
		if pair == nil {
			return true
		}
		named := make([]int32, pair.NumBlocks())
		for _, img := range pair.Images {
			wholly := true
			for _, m := range img {
				wholly = wholly && pair.BlockSizes[m.Block] == 1
				named[m.Block] = max(named[m.Block], m.Fact+1)
			}
			sawWholly = sawWholly || wholly
		}
		for b, n := range named {
			sawAnonymous = sawAnonymous || n < pair.BlockSizes[b]
		}
		saw64 = saw64 || pair.NumImages() == 64
		saw65 = saw65 || pair.NumImages() == 65
		sawOver128 = sawOver128 || pair.NumImages() > 128
		if msg := matchesReference(pair, uint64(len(seed))+1, 500); msg != "" {
			t.Logf("pair %+v: %s", pair, msg)
			return false
		}
		return true
	}
	// Fixed seeds make sure every case below is met.
	for k := byte(0); k < 3; k++ {
		if !f([]byte{0, 0x30, 7, k}) {
			t.Fatalf("many-image pair %d differs from the reference", k)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	for what, saw := range map[string]bool{
		"an image lying wholly in size-1 blocks": sawWholly,
		"an anonymous member":                    sawAnonymous,
		"64 images":                              saw64,
		"65 images":                              saw65,
		"over 128 images":                        sawOver128,
	} {
		if !saw {
			t.Fatalf("no random pair held %s", what)
		}
	}
}
