package cqa

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"cqabench/internal/estimator"
	"cqabench/internal/mt"
	"cqabench/internal/synopsis"
)

// The kernel golden file pins the exact estimates (float bits) and sample
// counts of every scheme on a fixed set of synopsis shapes and seeds. The
// batched / index-accelerated kernels must consume the MT19937-64 stream
// in exactly the order the original one-sample-at-a-time path did, so
// these values are invariant under kernel changes: any drift is a
// determinism regression, not noise. Regenerate (only when intentionally
// changing sampling semantics) with:
//
//	go test ./internal/cqa -run TestKernelGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/kernel_golden.json from the current implementation")

const goldenPath = "testdata/kernel_golden.json"

// goldenCase is one (pair, scheme, seed, budget) cell of the golden grid.
type goldenCase struct {
	Pair       string `json:"pair"`
	Scheme     string `json:"scheme"`
	Seed       uint64 `json:"seed"`
	MaxSamples int64  `json:"max_samples,omitempty"`
	// FreqBits is the IEEE-754 bit pattern of the estimate, in hex: bitwise
	// comparison catches drift a formatted float would round away.
	FreqBits string `json:"freq_bits"`
	Samples  int64  `json:"samples"`
	Err      string `json:"err,omitempty"` // "budget" when ErrBudget, else ""
}

// goldenPairs builds the fixed synopsis shapes of the golden grid. The
// construction is fully deterministic (its own MT stream) and spans the
// regimes the kernel selector distinguishes: tiny overlapping pairs
// (plain kernels), degenerate 1-block / 1-image pairs, and large-|H|
// low-coverage pairs (indexed kernels). Between them they hold every
// block kind a draw treats differently: size 1, powers of two and other
// sizes, and an image lying wholly in size-1 blocks.
func goldenPairs() []struct {
	name string
	pair *synopsis.Admissible
} {
	small := &synopsis.Admissible{
		BlockSizes: []int32{2, 3, 2},
		Images: []synopsis.Image{
			{{Block: 0, Fact: 0}},
			{{Block: 0, Fact: 0}, {Block: 1, Fact: 1}},
			{{Block: 1, Fact: 2}, {Block: 2, Fact: 0}},
		},
	}

	oneBlock := &synopsis.Admissible{
		BlockSizes: []int32{4},
		Images: []synopsis.Image{
			{{Block: 0, Fact: 0}},
			{{Block: 0, Fact: 2}},
		},
	}

	oneImage := &synopsis.Admissible{
		BlockSizes: []int32{3, 3, 3},
		Images: []synopsis.Image{
			{{Block: 0, Fact: 1}, {Block: 1, Fact: 0}, {Block: 2, Fact: 2}},
		},
	}

	// large: many short images over wide blocks — low coverage, big |H|,
	// the regime where the first-member index beats the plain scan.
	large := &synopsis.Admissible{}
	const nBlocks, blockSize = 24, 16
	for b := 0; b < nBlocks; b++ {
		large.BlockSizes = append(large.BlockSizes, blockSize)
	}
	src := mt.New(12345)
	for i := 0; i < 600; i++ {
		b1 := int32(src.Intn(nBlocks))
		b2 := int32(src.Intn(nBlocks))
		img := synopsis.Image{{Block: b1, Fact: int32(src.Intn(blockSize))}}
		if b2 != b1 {
			img = append(img, synopsis.Member{Block: b2, Fact: int32(src.Intn(blockSize))})
		}
		large.Images = append(large.Images, img)
	}
	for b := 0; b < nBlocks; b++ {
		large.Images = append(large.Images, synopsis.Image{{Block: int32(b), Fact: 0}})
	}

	// singletons: size-1, power-of-two and odd blocks side by side, with
	// one image lying wholly in size-1 blocks (so R(H,B) = 1) that sorts
	// after others, so KL's earlier-image checks reach it.
	singletons := &synopsis.Admissible{
		BlockSizes: []int32{1, 3, 1, 2, 5, 1, 1, 7, 4, 1},
		Images: []synopsis.Image{
			{{Block: 1, Fact: 0}, {Block: 3, Fact: 1}},
			{{Block: 0, Fact: 0}, {Block: 4, Fact: 2}},
			{{Block: 2, Fact: 0}, {Block: 4, Fact: 0}, {Block: 7, Fact: 3}},
			{{Block: 5, Fact: 0}, {Block: 6, Fact: 0}, {Block: 9, Fact: 0}},
			{{Block: 3, Fact: 0}, {Block: 7, Fact: 6}, {Block: 8, Fact: 3}},
			{{Block: 1, Fact: 2}, {Block: 8, Fact: 0}},
		},
	}

	// large-singletons: an indexed-kernel pair whose wide blocks mix odd
	// and power-of-two sizes, with size-1 blocks both before them (some
	// images start in one) and after them (many images end in one).
	// Every image holds two wide members, so coverage stays low.
	largeSingle := &synopsis.Admissible{}
	const nLow, nWide, nHigh = 3, 24, 13
	wideSizes := []int32{17, 32, 23, 16, 31, 20}
	for b := 0; b < nLow; b++ {
		largeSingle.BlockSizes = append(largeSingle.BlockSizes, 1)
	}
	for b := 0; b < nWide; b++ {
		largeSingle.BlockSizes = append(largeSingle.BlockSizes, wideSizes[b%len(wideSizes)])
	}
	for b := 0; b < nHigh; b++ {
		largeSingle.BlockSizes = append(largeSingle.BlockSizes, 1)
	}
	member := func(b int32) synopsis.Member {
		return synopsis.Member{Block: b, Fact: int32(src.Intn(int(largeSingle.BlockSizes[b])))}
	}
	// twoWide returns two members of distinct wide blocks, the first in
	// block first when first ≥ 0.
	twoWide := func(first int32) synopsis.Image {
		b1 := first
		if b1 < 0 {
			b1 = int32(nLow + src.Intn(nWide))
		}
		b2 := b1
		for b2 == b1 {
			b2 = int32(nLow + src.Intn(nWide))
		}
		return synopsis.Image{member(b1), member(b2)}
	}
	for i := 0; i < 800; i++ {
		img := twoWide(-1)
		if src.Intn(2) == 0 {
			img = append(img, synopsis.Member{Block: int32(nLow + nWide + src.Intn(nHigh))})
		}
		largeSingle.Images = append(largeSingle.Images, img)
	}
	// Touch every block: each size-1 block with two wide members, each
	// wide block as some image's first wide member.
	for b := 0; b < nLow+nHigh; b++ {
		single := int32(b)
		if b >= nLow {
			single += nWide
		}
		largeSingle.Images = append(largeSingle.Images, append(twoWide(-1), synopsis.Member{Block: single}))
	}
	for b := 0; b < nWide; b++ {
		largeSingle.Images = append(largeSingle.Images, twoWide(int32(nLow+b)))
	}

	out := []struct {
		name string
		pair *synopsis.Admissible
	}{
		{"small", small},
		{"one-block", oneBlock},
		{"one-image", oneImage},
		{"large", large},
		{"singletons", singletons},
		{"large-singletons", largeSingle},
	}
	for _, p := range out {
		p.pair.Canonicalize()
		if err := p.pair.Validate(); err != nil {
			panic(fmt.Sprintf("golden pair %s: %v", p.name, err))
		}
	}
	return out
}

// goldenGrid runs the full grid with the current implementation.
func goldenGrid() []goldenCase {
	var out []goldenCase
	for _, p := range goldenPairs() {
		for _, scheme := range Schemes {
			for _, seed := range []uint64{1, mt.DefaultSeed} {
				for _, maxSamples := range []int64{0, 37, 20000} {
					opts := Options{Eps: 0.2, Delta: 0.3, Seed: seed,
						Budget: estimator.Budget{MaxSamples: maxSamples}}
					freq, samples, err := ApxRelativeFreq(p.pair, scheme, opts, mt.New(seed))
					c := goldenCase{
						Pair:       p.name,
						Scheme:     scheme.String(),
						Seed:       seed,
						MaxSamples: maxSamples,
						FreqBits:   fmt.Sprintf("%016x", math.Float64bits(freq)),
						Samples:    samples,
					}
					switch {
					case err == nil:
					case errors.Is(err, estimator.ErrBudget):
						c.Err = "budget"
					default:
						panic(fmt.Sprintf("golden %s/%s: %v", p.name, scheme, err))
					}
					out = append(out, c)
				}
			}
		}
	}
	return out
}

// TestKernelGolden locks the estimates, sample counts, and budget
// outcomes of all four schemes to the recorded pre-kernel sequential
// reference: for a fixed seed the results must be bit-identical whatever
// kernel (plain, indexed, batched) the scheme selector picks.
func TestKernelGolden(t *testing.T) {
	got := goldenGrid()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden cases to %s", len(got), goldenPath)
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	var want []goldenCase
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden grid size changed: have %d cases, golden holds %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w != g {
			t.Errorf("case %s/%s seed=%d max=%d:\n  want %+v\n  got  %+v",
				w.Pair, w.Scheme, w.Seed, w.MaxSamples, w, g)
		}
	}
}
