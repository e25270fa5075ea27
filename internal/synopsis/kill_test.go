package synopsis

import (
	"math/rand/v2"
	"testing"
)

// randomKillPair returns a valid pair over the given number of blocks,
// of sizes 1–9: the distinct ones among the given number of random
// images, plus one image for each block none of them touches. A block's
// ids from a random named count up are anonymous: no image names them.
// Size-1 blocks make some images lie wholly in them.
func randomKillPair(g *rand.Rand, blocks, images int) *Admissible {
	a := &Admissible{BlockSizes: make([]int32, blocks)}
	named := make([]int32, blocks)
	for b := range a.BlockSizes {
		a.BlockSizes[b] = 1 + g.Int32N(9)
		named[b] = 1 + g.Int32N(a.BlockSizes[b])
	}
	touched := make([]bool, blocks)
	for i := 0; i < images; i++ {
		var img Image
		for b := range blocks {
			if g.IntN(2) == 0 {
				img = append(img, Member{Block: int32(b), Fact: g.Int32N(named[b])})
				touched[b] = true
			}
		}
		if len(img) > 0 {
			a.Images = append(a.Images, img)
		}
	}
	for b, ok := range touched {
		if !ok {
			a.Images = append(a.Images, Image{{Block: int32(b), Fact: g.Int32N(named[b])}})
		}
	}
	a.Canonicalize()
	return a
}

// killFacts describes what a test pair exercises in the kill index.
type killFacts struct{ multiword, over128, anonymous, wholly bool }

func (k *killFacts) add(a *Admissible) {
	k.multiword = k.multiword || a.NumImages() > 64
	k.over128 = k.over128 || a.NumImages() > 128
	named := make([]int32, a.NumBlocks())
	for _, img := range a.Images {
		wholly := true
		for _, m := range img {
			named[m.Block] = max(named[m.Block], m.Fact+1)
			wholly = wholly && a.BlockSizes[m.Block] == 1
		}
		k.wholly = k.wholly || wholly
	}
	for b, n := range named {
		k.anonymous = k.anonymous || n < a.BlockSizes[b]
	}
}

func newKillIndex(t testing.TB, a *Admissible) *KillIndex {
	t.Helper()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	flat := a.Flatten()
	x := new(KillIndex)
	x.Init(&flat, a.NumBlocks())
	return x
}

// TestKillIndexExhaustive: on random small pairs the index counts, for
// every database of db(B), the images CoverCount counts.
func TestKillIndexExhaustive(t *testing.T) {
	g := rand.New(rand.NewPCG(1, 15))
	var seen killFacts
	for trial := 0; trial < 150; trial++ {
		pair := randomKillPair(g, 1+g.IntN(4), []int{3, 80, 200}[trial%3])
		seen.add(pair)
		x := newKillIndex(t, pair)
		chosen := make([]int32, pair.NumBlocks())
		for {
			if got, want := x.CoverCount(chosen), pair.CoverCount(chosen); got != want {
				t.Fatalf("trial %d, database %v: kill index counts %d, CoverCount %d (pair %+v)", trial, chosen, got, want, pair)
			}
			b := 0
			for ; b < len(chosen); b++ {
				if chosen[b]++; chosen[b] < pair.BlockSizes[b] {
					break
				}
				chosen[b] = 0
			}
			if b == len(chosen) {
				break
			}
		}
	}
	if seen != (killFacts{true, true, true, true}) {
		t.Fatalf("the trials missed a case: %+v", seen)
	}
}

// FuzzCoverCount: on a pair built from the input — up to 8 blocks of
// sizes 1–9, up to 200 images, anonymous members — the kill index counts
// what CoverCount counts, on random databases half of which are planted
// with an image, as KLM's draws are.
func FuzzCoverCount(f *testing.F) {
	for _, c := range []struct {
		seed           uint64
		blocks, images uint8
	}{{1, 1, 1}, {2, 3, 10}, {3, 5, 64}, {4, 6, 65}, {5, 8, 130}, {6, 8, 199}} {
		f.Add(c.seed, c.blocks, c.images)
	}
	f.Fuzz(func(t *testing.T, seed uint64, blocks, images uint8) {
		g := rand.New(rand.NewPCG(seed, 15))
		pair := randomKillPair(g, 1+int(blocks)%8, 1+int(images)%200)
		x := newKillIndex(t, pair)
		chosen := make([]int32, pair.NumBlocks())
		for d := 0; d < 200; d++ {
			for b, sz := range pair.BlockSizes {
				chosen[b] = g.Int32N(sz)
			}
			if d%2 == 0 {
				for _, m := range pair.Images[g.IntN(pair.NumImages())] {
					chosen[m.Block] = m.Fact
				}
			}
			if got, want := x.CoverCount(chosen), pair.CoverCount(chosen); got != want {
				t.Fatalf("database %v: kill index counts %d, CoverCount %d (pair %+v)", chosen, got, want, pair)
			}
		}
	})
}
