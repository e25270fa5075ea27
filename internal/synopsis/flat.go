package synopsis

// FlatImages is the flattened, cache-friendly coverage layout of an
// admissible pair's image list: every image's members concatenated into
// one contiguous []Member with an offsets array delimiting images. The
// sampling kernels traverse it instead of the pointer-chasing
// [][]Member form — image checks walk one dense array, so the millions
// of coverage tests an estimation run performs stay in cache.
//
// The layout omits members in size-1 blocks. Validate guarantees
// Fact < BlockSizes[Block], so such a member is always fact 0, and every
// database of db(B) keeps it: checking it can never fail. An image lying
// wholly in size-1 blocks is left empty and always covers.
//
// A FlatImages is immutable once built; it may be shared freely across
// samplers of the same pair (the kernels only read it).
type FlatImages struct {
	// Members holds every image's members in blocks of size ≥ 2, back
	// to back, images in canonical order, each image's members sorted
	// by block.
	Members []Member
	// Offsets has NumImages()+1 entries: image i spans
	// Members[Offsets[i]:Offsets[i+1]].
	Offsets []int32
}

// Flatten builds the coverage layout of the pair's images, without
// members in size-1 blocks. O(total members); sampler constructors, its
// only callers, build it once per estimation run, which amortizes over
// the run's sample draws immediately.
func (a *Admissible) Flatten() FlatImages {
	total := 0
	for _, img := range a.Images {
		total += len(img)
	}
	f := FlatImages{
		Members: make([]Member, total),
		Offsets: make([]int32, len(a.Images)+1),
	}
	// Every member is written, and kept by advancing k only if its block
	// has size ≥ 2: sizes 1 and ≥ 2 interleave unpredictably, and the
	// increment compiles without a branch.
	k := 0
	for i, img := range a.Images {
		for _, m := range img {
			f.Members[k] = m
			if a.BlockSizes[m.Block] > 1 {
				k++
			}
		}
		f.Offsets[i+1] = int32(k)
	}
	f.Members = f.Members[:k]
	return f
}

// NumImages returns |H|.
func (f *FlatImages) NumImages() int { return len(f.Offsets) - 1 }

// Image returns image i's members in blocks of size ≥ 2 as a view into
// the flat array.
func (f *FlatImages) Image(i int) []Member {
	return f.Members[f.Offsets[i]:f.Offsets[i+1]]
}

// Covers reports whether image i is contained in the database described
// by chosen. For every database of db(B) (chosen[b] = 0 for each size-1
// block b) it agrees with Admissible.Covers.
func (f *FlatImages) Covers(i int, chosen []int32) bool {
	for _, m := range f.Members[f.Offsets[i]:f.Offsets[i+1]] {
		if chosen[m.Block] != m.Fact {
			return false
		}
	}
	return true
}

// FirstCover returns the least i with H_i ⊆ I, or -1. It agrees with
// Admissible.FirstCover on db(B).
func (f *FlatImages) FirstCover(chosen []int32) int {
	n := f.NumImages()
	for i := 0; i < n; i++ {
		if f.Covers(i, chosen) {
			return i
		}
	}
	return -1
}

// Shape summarizes the quantities kernel selection is based on. All
// fields derive from the pair alone, so the choice of sampling kernel is
// a pure function of synopsis shape.
type Shape struct {
	Images    int     // |H|
	Blocks    int     // |B|
	MeanBlock float64 // mean block cardinality
	MeanWidth float64 // mean image width |H_i|
	// FirstBlocks counts the distinct blocks appearing as some image's
	// first member — the lookups a first-member index performs per draw.
	FirstBlocks int
	// ExpectedCandidates is the expected number of candidate images a
	// first-member index visits per uniform draw from db(B):
	// Σ_b |{i : first(H_i) ∈ block b}| / size(b).
	ExpectedCandidates float64
}

// ShapeOf computes the pair's kernel-selection shape. O(|H| + |B|).
func (a *Admissible) ShapeOf() Shape {
	s := Shape{Images: len(a.Images), Blocks: len(a.BlockSizes)}
	var sizeSum float64
	for _, sz := range a.BlockSizes {
		sizeSum += float64(sz)
	}
	if s.Blocks > 0 {
		s.MeanBlock = sizeSum / float64(s.Blocks)
	}
	firstCount := make(map[int32]int, len(a.BlockSizes))
	members := 0
	for _, img := range a.Images {
		members += len(img)
		firstCount[img[0].Block]++
	}
	if s.Images > 0 {
		s.MeanWidth = float64(members) / float64(s.Images)
	}
	s.FirstBlocks = len(firstCount)
	for b, n := range firstCount {
		s.ExpectedCandidates += float64(n) / float64(a.BlockSizes[b])
	}
	return s
}
