package main

import (
	"bytes"
	"fmt"
	"slices"
	"time"

	"cqabench/internal/cq"
	"cqabench/internal/engine"
	"cqabench/internal/noise"
	"cqabench/internal/relation"
	"cqabench/internal/scenario"
	"cqabench/internal/syncache"
	"cqabench/internal/synopsis"
	"cqabench/internal/tpch"
)

// The prep workload is cold preprocessing (Fig. 3): for every pair,
// synopsis.Build, then syncache.Encode and syncache.DecodeBytes. The
// pairs are the TPC-H validation templates (Appendix F: 1- to 6-way
// joins) at two noise levels. Block indexing, homomorphism enumeration,
// synopsis encoding and the codec do all the work; no sampler runs.
const (
	prepSF       = 0.002
	prepDataSeed = 1
)

var prepNoise = []float64{0.2, 0.6}

type prepPair struct {
	name string
	db   *relation.Database
	q    *cq.Query
}

// setupPrep generates the TPC-H base and the noisy pairs. The base data
// is pinned, as the Lab of the other workloads is: another data seed
// moves a pass by up to 15 %. The noise seeds come from the workload
// seed.
func setupPrep(cfg config) ([]prepPair, error) {
	sf, templates, levels := prepSF, scenario.TPCHValidationQueries(), prepNoise
	if cfg.tiny {
		all := templates
		sf, templates, levels = 0.0005, []scenario.ValidationQuery{all[0], all[1], all[6]}, levels[:1]
	}
	base, err := tpch.Generate(tpch.Config{ScaleFactor: sf, Seed: prepDataSeed})
	if err != nil {
		return nil, err
	}
	return preparePairs(base, templates, levels, cfg.seed)
}

// preparePairs injects query-aware noise for every template and level.
func preparePairs(base *relation.Database, templates []scenario.ValidationQuery, levels []float64, seed uint64) ([]prepPair, error) {
	var pairs []prepPair
	for _, vq := range templates {
		q, err := cq.Parse(vq.Text, base.Dict)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", vq.Name(), err)
		}
		if err := q.Validate(base.Schema); err != nil {
			return nil, fmt.Errorf("%s: %w", vq.Name(), err)
		}
		for _, p := range levels {
			name := fmt.Sprintf("%s/p%.1f", vq.Name(), p)
			db, _, err := noise.Apply(base, q, noise.Config{P: p, MinBlock: 2, MaxBlock: 5, Seed: derive(seed, "prep/noise/"+name)})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			pairs = append(pairs, prepPair{name: name, db: db, q: q})
		}
	}
	return pairs, nil
}

// prepPass is one pass over every pair.
type prepPass struct {
	dur                   time.Duration
	build, encode, decode time.Duration
	images, bytes         int64
	encoded               [][]byte
}

// prepRound builds, encodes and decodes every pair, then checks each
// decode against its build and each encoding against the reference
// pass's.
func prepRound(rep *report, pairs []prepPair, ref *prepPass, root *span) prepPass {
	out := prepPass{encoded: make([][]byte, len(pairs))}
	type built struct{ set, dec *synopsis.Set }
	sets := make([]built, len(pairs))
	start := time.Now()
	for i, p := range pairs {
		op := root.op("prepare " + p.name)
		sp := op.call("synopsis.Build")
		t0 := time.Now()
		set, err := synopsis.Build(p.db, p.q)
		t1 := time.Now()
		sp.done()
		var buf bytes.Buffer
		var dec *synopsis.Set
		if err == nil {
			sp = op.call("syncache.Encode")
			err = syncache.Encode(&buf, set)
			sp.done()
		}
		t2 := time.Now()
		if err == nil {
			sp = op.call("syncache.DecodeBytes")
			dec, err = syncache.DecodeBytes(buf.Bytes())
			sp.done()
		}
		t3 := time.Now()
		op.done()
		rep.op(err)
		out.build += t1.Sub(t0)
		out.encode += t2.Sub(t1)
		out.decode += t3.Sub(t2)
		out.encoded[i] = buf.Bytes()
		out.bytes += int64(buf.Len())
		sets[i] = built{set, dec}
	}
	out.dur = time.Since(start)
	for i, b := range sets {
		if b.set == nil || b.dec == nil {
			continue
		}
		for _, e := range b.set.Entries {
			out.images += int64(e.Pair.NumImages())
		}
		if msg := sameSet(b.set, b.dec); msg != "" {
			rep.check(false, "%s: decode differs from build: %s", pairs[i].name, msg)
		}
		if ref != nil && ref.encoded[i] != nil && !bytes.Equal(ref.encoded[i], out.encoded[i]) {
			rep.check(false, "%s: encoding differs between passes", pairs[i].name)
		}
	}
	if ref != nil {
		out.encoded = nil // only the reference pass keeps its bytes
	}
	return out
}

// sameSet compares two synopsis sets entry by entry: tuples, facts,
// block sizes and images. It returns "" when they are equal.
func sameSet(a, b *synopsis.Set) string {
	if len(a.Entries) != len(b.Entries) || a.HomomorphicSize != b.HomomorphicSize {
		return fmt.Sprintf("%d entries / %d images vs %d / %d", len(a.Entries), a.HomomorphicSize, len(b.Entries), b.HomomorphicSize)
	}
	for i := range a.Entries {
		x, y := &a.Entries[i], &b.Entries[i]
		switch {
		case !x.Tuple.Equal(y.Tuple):
			return fmt.Sprintf("entry %d: tuple", i)
		case !slices.Equal(x.Facts, y.Facts):
			return fmt.Sprintf("entry %d: facts", i)
		case !slices.Equal(x.Pair.BlockSizes, y.Pair.BlockSizes):
			return fmt.Sprintf("entry %d: block sizes", i)
		case !slices.EqualFunc(x.Pair.Images, y.Pair.Images, func(p, q synopsis.Image) bool { return slices.Equal(p, q) }):
			return fmt.Sprintf("entry %d: images", i)
		}
	}
	return ""
}

func runPrep(cfg config) (*report, error) {
	rep := newReport("prep")
	pairs, setupS, err := timedSetups(setupRepeats(cfg), func() ([]prepPair, error) { return setupPrep(cfg) }, nil)
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", setupS)
	tr := newTracer(cfg)
	root := tr.root("prep")

	var plain, traced []prepPass
	var ref *prepPass
	mem := measure(cfg, func(withSpans bool) {
		if withSpans {
			traced = append(traced, prepRound(rep, pairs, ref, root))
			return
		}
		plain = append(plain, prepRound(rep, pairs, ref, nil))
		if ref == nil {
			first := plain[0]
			ref = &first
		}
	})
	rep.set("mem_peak_mb", mem)
	root.done()

	var passes, builds, decodes, encodes []float64
	for _, p := range plain {
		passes = append(passes, p.dur.Seconds())
		builds = append(builds, p.build.Seconds())
		encodes = append(encodes, p.encode.Seconds())
		decodes = append(decodes, p.decode.Seconds())
	}
	rep.set("pass_s", median(passes))
	rep.setNamed("prep_s", "s", median(builds))
	rep.setNamed("load_s", "s", median(decodes))
	rep.setNamed("mem_peak_mb", "MB", rep.values["mem_peak_mb"])
	rep.setNamed("fail_frac", "ratio", float64(rep.failed)/float64(max(rep.attempted, 1)))
	rep.setNamed("setup_s", "s", setupS)

	if cfg.trace {
		var tracedS, tBuilds, tEncodes, tDecodes []float64
		for _, p := range traced {
			tracedS = append(tracedS, p.dur.Seconds())
			tBuilds = append(tBuilds, p.build.Seconds())
			tEncodes = append(tEncodes, p.encode.Seconds())
			tDecodes = append(tDecodes, p.decode.Seconds())
		}
		rep.set("obs.trace_overhead.prep", median(tracedS)-median(passes))
		build := median(tBuilds)
		rep.set("synopsis.build_s", build)
		rep.set("syncache.encode_s", median(tEncodes))
		rep.set("syncache.decode_s", median(tDecodes))
		images := ref.images
		rep.set("synopsis.images", float64(images))
		if images > 0 {
			rep.set("synopsis.ns_per_image", build*1e9/float64(images))
			rep.set("syncache.bytes_per_image", float64(ref.bytes)/float64(images))
		}
		blocks, enum, homs := probeLayers(rep, pairs, tr.root("prep.layers"))
		rep.set("relation.blocks_s", blocks)
		rep.set("engine.enum_s", enum)
		rep.set("engine.homs", float64(homs))
		rep.set("engine.homs_per_pair", float64(homs)/float64(len(pairs)))
		if homs > 0 {
			rep.set("engine.ns_per_hom", enum*1e9/float64(homs))
		}
		rep.set("synopsis.self_s", build-blocks-enum)
		if err := writeTrace(tr, cfg); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// probeLayers times the two layers synopsis.Build calls first, from
// outside: relation.BuildBlocks and a counting enumeration of every
// homomorphism. It returns their total seconds and the homomorphisms.
func probeLayers(rep *report, pairs []prepPair, root *span) (blocksS, enumS float64, homs int64) {
	for _, p := range pairs {
		op := root.op("layers " + p.name)
		sp := op.call("relation.BuildBlocks")
		t0 := time.Now()
		relation.BuildBlocks(p.db)
		t1 := time.Now()
		sp.done()
		sp = op.call("engine.EnumerateHomomorphisms")
		var n int64
		err := engine.NewEvaluator(p.db).EnumerateHomomorphisms(p.q, func(*engine.Homomorphism) error {
			n++
			return nil
		})
		t2 := time.Now()
		sp.done()
		op.done()
		rep.op(err)
		blocksS += t1.Sub(t0).Seconds()
		enumS += t2.Sub(t1).Seconds()
		homs += n
	}
	root.done()
	return blocksS, enumS, homs
}
