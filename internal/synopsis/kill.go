package synopsis

import "math/bits"

// KillIndex counts the images covering a database of db(B) without
// visiting them: the k of Sampler 3 (KLM, Lemma 4.7). An image fails to
// cover I exactly when some block it touches keeps a member other than
// the image's own there; call the image killed by that choice.
//
// For each block of size ≥ 2 the index lists the words of a |H|-bit set
// in which the images touching the block lie, and for each member f of
// the block one mask per word: the images that touch the block with a
// member other than f, i.e. those that keeping f kills. Anonymous members
// (ids at or above the block's named count, one more than the highest
// member an image names there) kill every image touching the block, so
// they share one entry. A count ORs the kept members' masks into a
// scratch bitset and returns |H| minus its population count.
//
// The index is built from the coverage layout, so size-1 blocks, whose
// member 0 every database keeps, are not indexed: they kill nothing, and
// an image lying wholly in them is never killed. A member's masks may be
// zero in a word where every image touching the block names it. A block
// costs (named count + 2) × width words, width being the number of words
// its images fall in: on the benchmark's TPC-H pairs (noise up to 1.0,
// up to three joins, the validation templates) under three per layout
// member, though a block whose images name many members and spread over
// many words costs up to about named count × |H|/64.
//
// The index owns its scratch bitset, so, like the samplers that hold it,
// one index serves one draw loop at a time. Small indexes keep their
// tables inside the KillIndex value, which therefore must not be copied
// once built: samplers embed it and build it where it stays.
type KillIndex struct {
	images int
	// slots holds three int32 per indexed block, in block order: the
	// block, its named count and its width, the number of words its
	// images fall in. rows holds, block after block, one row per such
	// word: the word's index, then one mask per member id below the
	// named count, then the anonymous members' mask.
	slots  []int32
	rows   []uint64
	killed []uint64 // scratch: bit i set once image i is killed
	// Room for the tables of small pairs, most of a run's tuples: they
	// then cost their sampler no allocation of their own.
	smallSlots [12]int32
	smallRows  [16]uint64
}

// Init builds, in place, the kill index of a coverage layout whose
// members lie in blocks 0..numBlocks-1, in time linear in |B|, the
// layout's members and the size of the index. Sampler constructors
// build it once per pair.
func (x *KillIndex) Init(flat *FlatImages, numBlocks int) {
	n := flat.NumImages()
	// Per block: the named count, the width, one more than the last word
	// seen, and the block's current row.
	var buf [4 * 8]int32
	tmp := buf[:]
	if 4*numBlocks > len(buf) {
		tmp = make([]int32, 4*numBlocks)
	}
	named, width := tmp[:numBlocks], tmp[numBlocks:2*numBlocks]
	last, row := tmp[2*numBlocks:3*numBlocks], tmp[3*numBlocks:4*numBlocks]
	for i := 0; i < n; i++ {
		w := int32(i>>6) + 1
		for _, m := range flat.Image(i) {
			named[m.Block] = max(named[m.Block], m.Fact+1)
			if last[m.Block] != w {
				last[m.Block] = w
				width[m.Block]++
			}
		}
	}
	nslots, nrows := 0, 0
	for b, wd := range width {
		if wd > 0 {
			nslots++
			nrows += int(wd) * int(named[b]+2)
		}
	}
	x.images = n
	x.slots = x.smallSlots[:0]
	if 3*nslots > len(x.smallSlots) {
		x.slots = make([]int32, 0, 3*nslots)
	}
	sets := x.smallRows[:]
	if k := nrows + (n+63)/64; k > len(sets) {
		sets = make([]uint64, k)
	} else {
		sets = sets[:k]
		clear(sets)
	}
	x.rows, x.killed = sets[:nrows], sets[nrows:]
	at := int32(0)
	for b, wd := range width {
		if wd > 0 {
			x.slots = append(x.slots, int32(b), named[b], wd)
			last[b], row[b] = 0, at-named[b]-2
			at += wd * (named[b] + 2)
		}
	}
	// First each member's own images into its masks and every image
	// touching the block into the anonymous mask; then each member's
	// masks become the anonymous ones minus its own.
	for i := 0; i < n; i++ {
		w, bit := int32(i>>6)+1, uint64(1)<<(i&63)
		for _, m := range flat.Image(i) {
			b, stride := m.Block, named[m.Block]+2
			if last[b] != w {
				last[b] = w
				row[b] += stride
				x.rows[row[b]] = uint64(w - 1)
			}
			x.rows[row[b]+1+m.Fact] |= bit
			x.rows[row[b]+stride-1] |= bit
		}
	}
	rows := x.rows
	for s := 0; s < len(x.slots); s += 3 {
		nb := x.slots[s+1]
		for r := x.slots[s+2]; r > 0; r-- {
			masks := rows[1 : nb+2]
			for f, own := range masks[:nb] {
				masks[f] = masks[nb] &^ own
			}
			rows = rows[nb+2:]
		}
	}
}

// CoverCount returns |{i : H_i ⊆ I}| for the database of db(B) described
// by chosen (chosen[b] = 0 for each size-1 block b). It agrees with
// Admissible.CoverCount on db(B).
func (x *KillIndex) CoverCount(chosen []int32) int {
	killed := x.killed
	clear(killed)
	rows := x.rows
	for s := 0; s+2 < len(x.slots); s += 3 {
		b, nb, wd := x.slots[s], x.slots[s+1], x.slots[s+2]
		e := 1 + min(chosen[b], nb)
		for ; wd > 0; wd-- {
			killed[rows[0]] |= rows[e]
			rows = rows[nb+2:]
		}
	}
	k := x.images
	for _, w := range killed {
		k -= bits.OnesCount64(w)
	}
	return k
}
