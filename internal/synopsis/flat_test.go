package synopsis

import "testing"

// The coverage layout omits members in size-1 blocks, yet on every
// database of db(B) it answers each coverage question as the full
// images do; an image lying wholly in size-1 blocks is empty and always
// covers.
func TestFlattenOmitsSizeOneMembers(t *testing.T) {
	pair := &Admissible{
		BlockSizes: []int32{1, 3, 1, 2, 1},
		Images: []Image{
			{{Block: 0, Fact: 0}, {Block: 1, Fact: 2}},
			{{Block: 1, Fact: 0}, {Block: 3, Fact: 1}, {Block: 4, Fact: 0}},
			{{Block: 2, Fact: 0}, {Block: 4, Fact: 0}},
			{{Block: 3, Fact: 0}},
		},
	}
	pair.Canonicalize()
	if err := pair.Validate(); err != nil {
		t.Fatal(err)
	}
	flat := pair.Flatten()
	for _, m := range flat.Members {
		if pair.BlockSizes[m.Block] == 1 {
			t.Fatalf("layout keeps member %+v of a size-1 block", m)
		}
	}
	var empty int
	for i := 0; i < flat.NumImages(); i++ {
		if len(flat.Image(i)) == 0 {
			empty++
		}
	}
	if empty != 1 {
		t.Fatalf("want one empty image (the wholly size-1 one), have %d", empty)
	}
	// Every database of db(B): size-1 blocks keep fact 0.
	chosen := make([]int32, pair.NumBlocks())
	for f1 := int32(0); f1 < 3; f1++ {
		for f3 := int32(0); f3 < 2; f3++ {
			chosen[1], chosen[3] = f1, f3
			for i := range pair.Images {
				if flat.Covers(i, chosen) != pair.Covers(i, chosen) {
					t.Fatalf("image %d on %v: layout %v, images %v", i, chosen, flat.Covers(i, chosen), pair.Covers(i, chosen))
				}
			}
			if flat.FirstCover(chosen) != pair.FirstCover(chosen) {
				t.Fatalf("on %v: FirstCover differs", chosen)
			}
		}
	}
}
