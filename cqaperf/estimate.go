package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"cqabench/internal/cqa"
	"cqabench/internal/estimator"
	"cqabench/internal/mt"
	"cqabench/internal/sampler"
	"cqabench/internal/scenario"
	"cqabench/internal/synopsis"
)

// The estimate workload is the paper's measured phase: ApxCQA[scheme]
// for Natural, KL, KLM and Cover, run one after another over smoke-scale
// TPC-H pairs whose synopses are built during set-up and kept resident.
// Two pair shapes use the samplers in opposite ways: the Boolean pair is
// one tuple with a huge |H| (millions of KL draws), the balance-family
// pairs are hundreds of tuples with tiny synopses, where per-tuple
// sampler set-up and Natural dominate.
const (
	// estLabSeed pins the scenario data. The pair shapes are the
	// workload's definition (the Boolean pair has |H| = 757, |B| = 246
	// at this seed); another Lab seed halves or doubles |H|.
	estLabSeed = 1
	estSF      = 0.0002
	estNoise   = 0.4
)

// estPair is one resident pair: its synopsis, exact baseline and
// estimator seed.
type estPair struct {
	name  string
	set   *synopsis.Set
	exact []float64
	seed  uint64
}

// estRun is one scheme configuration of a pass.
type estRun struct {
	label   string
	scheme  cqa.Scheme
	workers int // cqa.Options.SamplingWorkers
}

type estData struct {
	pairs      []*estPair
	runs       []estRun
	eps, delta float64
}

func estimateRuns() []estRun {
	pool := runtime.NumCPU()
	if pool < 2 {
		pool = 2
	}
	return []estRun{
		{"Natural", cqa.Natural, 0},
		{"KL", cqa.KL, 0},
		{"KLM", cqa.KLM, 0},
		{"Cover", cqa.Cover, 0},
		{"KL.pool", cqa.KL, pool},
	}
}

// setupEstimate builds the pairs, their synopses and exact baselines.
// The Boolean pair runs at the reference seed mt.DefaultSeed whatever
// the workload seed: its KL draw count alone ranges over 0.84–1.86 M
// across seeds, which would swamp any change to the code. The balance
// pairs, hundreds of tuples each, draw their seeds from the workload
// seed.
func setupEstimate(cfg config) (*estData, error) {
	d := &estData{runs: estimateRuns(), eps: 0.1, delta: 0.25}
	levels := []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	if cfg.tiny {
		levels = []float64{0.5}
		d.eps = 0.3
	}
	labCfg := scenario.DefaultConfig()
	labCfg.ScaleFactor = estSF
	labCfg.Seed = estLabSeed
	labCfg.QueriesPerJoin = 1
	lab, err := scenario.NewLab(labCfg)
	if err != nil {
		return nil, err
	}
	var pairs []scenario.Pair
	if !cfg.tiny {
		w, err := lab.NoiseScenario(0, 1, []float64{estNoise})
		if err != nil {
			return nil, err
		}
		pairs = append(pairs, w.Pairs...)
	}
	w, err := lab.BalanceScenario(estNoise, 1, levels)
	if err != nil {
		return nil, err
	}
	pairs = append(pairs, w.Pairs...)
	for _, p := range pairs {
		set, err := synopsis.Build(p.DB, p.Query)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		exact, err := cqa.ExactAnswersFromSet(set, 0)
		if err != nil {
			return nil, fmt.Errorf("%s: exact baseline: %w", p.Name, err)
		}
		ep := &estPair{name: p.Name, set: set, seed: derive(cfg.seed, "estimate/"+p.Name)}
		if p.Target == 0 {
			ep.seed = mt.DefaultSeed
		}
		for _, tf := range exact {
			ep.exact = append(ep.exact, tf.Freq)
		}
		d.pairs = append(d.pairs, ep)
	}
	return d, nil
}

// estPass is the outcome of one pass: every run over every pair.
type estPass struct {
	dur     time.Duration
	perRun  []time.Duration // indexed like estData.runs
	answers [][][]float64   // [run][pair][tuple]
	draws   [][][]int64     // per-tuple draws, traced sequential runs only
	samples []int64         // per run
	chunks  []int64         // per run
	stages  map[string]float64
}

// pass runs every scheme configuration over every pair. With a span it
// records one operation per (run, pair) and turns on convergence
// recording for the sequential runs, whose final points give the
// per-tuple draw counts the replay must reproduce.
func (d *estData) pass(rep *report, root *span) estPass {
	out := estPass{
		perRun:  make([]time.Duration, len(d.runs)),
		answers: make([][][]float64, len(d.runs)),
		draws:   make([][][]int64, len(d.runs)),
		samples: make([]int64, len(d.runs)),
		chunks:  make([]int64, len(d.runs)),
		stages:  make(map[string]float64),
	}
	start := time.Now()
	for ri, run := range d.runs {
		out.answers[ri] = make([][]float64, len(d.pairs))
		out.draws[ri] = make([][]int64, len(d.pairs))
		for pi, p := range d.pairs {
			opts := cqa.DefaultOptions()
			opts.Eps, opts.Delta, opts.Seed = d.eps, d.delta, p.seed
			opts.SamplingWorkers = run.workers
			traced := root != nil && run.workers == 0
			if traced {
				opts.Convergence = cqa.ConvergenceOptions{Enabled: true, MaxPoints: 2, MaxTuples: len(p.set.Entries)}
			}
			op := root.op("cqa." + run.label + " " + p.name)
			call := op.call("cqa.ApxAnswersFromSetContext")
			t0 := time.Now()
			res, stats, err := cqa.ApxAnswersFromSetContext(context.Background(), p.set, run.scheme, opts)
			dt := time.Since(t0)
			call.done()
			op.done()
			rep.op(err)
			out.perRun[ri] += dt
			out.samples[ri] += stats.Samples
			out.chunks[ri] += stats.Chunks
			if err != nil {
				continue
			}
			freqs := make([]float64, len(res))
			for i, tf := range res {
				freqs[i] = tf.Freq
			}
			rep.check(len(res) == len(p.set.Entries), "%s %s: %d answers for %d tuples", run.label, p.name, len(res), len(p.set.Entries))
			for i := range res {
				if i < len(p.set.Entries) && !res[i].Tuple.Equal(p.set.Entries[i].Tuple) {
					rep.check(false, "%s %s: answer %d is not the synopsis tuple", run.label, p.name, i)
					break
				}
			}
			out.answers[ri][pi] = freqs
			if traced {
				draws := make([]int64, len(p.set.Entries))
				for _, tr := range stats.Convergence {
					if n := len(tr.Points); n > 0 && tr.Tuple < len(draws) {
						draws[tr.Tuple] = tr.Points[n-1].Samples
					}
				}
				out.draws[ri][pi] = draws
				for _, st := range stats.Stages {
					stage := st.Name
					if strings.HasPrefix(stage, "sampler.init") {
						stage = "sampler_init"
					}
					out.stages["cqa.stage_s."+stage+"."+run.label] += st.Dur.Seconds()
				}
			}
		}
	}
	out.dur = time.Since(start)
	return out
}

// checkAnswers compares a pass with the reference pass bit for bit and
// checks that every estimate lies in [0, 1].
func (d *estData) checkAnswers(rep *report, ref, got estPass) {
	for ri, run := range d.runs {
		for pi, p := range d.pairs {
			a, b := ref.answers[ri][pi], got.answers[ri][pi]
			if len(a) != len(b) {
				rep.check(false, "%s %s: passes returned %d and %d answers", run.label, p.name, len(a), len(b))
				continue
			}
			for i := range b {
				if !(b[i] >= 0 && b[i] <= 1) {
					rep.check(false, "%s %s: estimate %v of tuple %d outside [0, 1]", run.label, p.name, b[i], i)
					break
				}
				if a[i] != b[i] {
					rep.check(false, "%s %s: tuple %d estimated %v, then %v with the same seed", run.label, p.name, i, a[i], b[i])
					break
				}
			}
		}
	}
}

// accuracy scores the reference pass against the exact baselines: the
// share of (run, tuple) estimates off by more than ε·exact, which must
// not exceed δ, and the 95th percentile of the relative error.
func (d *estData) accuracy(rep *report, ref estPass) (violationFrac, relErrP95 float64) {
	var errs []float64
	violations := 0
	for ri := range d.runs {
		for pi, p := range d.pairs {
			for i, est := range ref.answers[ri][pi] {
				exact := p.exact[i]
				rel := math.Abs(est-exact) / exact
				errs = append(errs, rel)
				if math.Abs(est-exact) > d.eps*exact {
					violations++
				}
			}
		}
	}
	if len(errs) == 0 {
		rep.check(false, "no estimate to score against the exact baselines")
		return 0, 0
	}
	violationFrac = float64(violations) / float64(len(errs))
	rep.check(violationFrac <= d.delta, "eps_violation_frac %.4f exceeds delta %.2f", violationFrac, d.delta)
	return violationFrac, quantile(errs, 0.95)
}

func runEstimate(cfg config) (*report, error) {
	rep := newReport("estimate")
	d, setupS, err := timedSetups(setupRepeats(cfg), func() (*estData, error) { return setupEstimate(cfg) }, nil)
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", setupS)
	tr := newTracer(cfg)
	root := tr.root("estimate")

	var plain, traced []estPass
	var ref *estPass
	mem := measure(cfg, func(withSpans bool) {
		var at *span
		if withSpans {
			at = root
		}
		p := d.pass(rep, at)
		if ref == nil {
			ref = &p
		}
		d.checkAnswers(rep, *ref, p)
		// Only the reference pass and the first traced pass, which the
		// replay follows, keep their answers.
		if withSpans {
			if len(traced) > 0 {
				p.answers, p.draws = nil, nil
			}
			traced = append(traced, p)
			return
		}
		if len(plain) > 0 {
			p.answers = nil
		}
		plain = append(plain, p)
	})
	rep.set("mem_peak_mb", mem)
	root.done()

	var passes []float64
	perRun := make([][]float64, len(d.runs))
	for _, p := range plain {
		passes = append(passes, p.dur.Seconds())
		for ri := range d.runs {
			perRun[ri] = append(perRun[ri], p.perRun[ri].Seconds())
		}
	}
	rep.set("pass_s", median(passes))

	violations, relErrP95 := d.accuracy(rep, *ref)
	for ri, run := range d.runs {
		rep.setNamed("answer_s."+run.label, "s", median(perRun[ri]))
	}
	rep.setNamed("eps_violation_frac", "ratio", violations)
	rep.setNamed("mem_peak_mb", "MB", rep.values["mem_peak_mb"])
	rep.setNamed("fail_frac", "ratio", float64(rep.failed)/float64(max(rep.attempted, 1)))
	rep.setNamed("setup_s", "s", setupS)

	if cfg.trace {
		t := traced[0]
		var tracedS []float64
		for _, p := range traced {
			tracedS = append(tracedS, p.dur.Seconds())
		}
		rep.set("obs.trace_overhead.estimate", median(tracedS)-median(passes))
		for k, v := range t.stages {
			rep.set(k, v)
		}
		rep.set("cqa.rel_err_p95", relErrP95)
		pool := len(d.runs) - 1
		rep.set("estimator.chunks", float64(t.chunks[pool]))
		if n := t.samples[pool]; n > 0 {
			rep.set("estimator.pool_ns_per_draw", median(perRun[pool])*1e9/float64(n))
		}
		d.replay(rep, tr.root("estimate.replay"), t)
		if err := writeTrace(tr, cfg); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// timedSampler forwards to a kernel and times each SampleBatch call:
// one clock read pair per 256-draw chunk, never per draw.
type timedSampler struct {
	s     estimator.BatchSampler
	ns    int64
	draws int64
}

func (t *timedSampler) Sample(src *mt.Source) float64 {
	t.draws++
	return t.s.Sample(src)
}

func (t *timedSampler) SampleBatch(src *mt.Source, dst []float64) {
	t0 := time.Now()
	t.s.SampleBatch(src, dst)
	t.ns += int64(time.Since(t0))
	t.draws += int64(len(dst))
}

// countingSpace forwards to a symbolic space and counts Draw and InSet
// calls.
type countingSpace struct {
	estimator.SymbolicSpace
	draws, checks int64
}

func (c *countingSpace) Draw(src *mt.Source) int {
	c.draws++
	return c.SymbolicSpace.Draw(src)
}

func (c *countingSpace) InSet(j int) bool {
	c.checks++
	return c.SymbolicSpace.InSet(j)
}

// newReplaySampler builds the sampler cqa builds for the scheme and
// kernel: a batch sampler and its estimate weight, or for Cover the
// plain symbolic space.
func newReplaySampler(pair *synopsis.Admissible, scheme cqa.Scheme, kernel sampler.Kernel) (estimator.BatchSampler, estimator.SymbolicSpace, float64) {
	indexed := kernel == sampler.Indexed
	switch scheme {
	case cqa.Natural:
		if indexed {
			return sampler.NewNaturalIndexed(pair), nil, 1
		}
		return sampler.NewNatural(pair), nil, 1
	case cqa.KL:
		if indexed {
			s := sampler.NewKLIndexed(pair)
			return s, nil, s.Weight()
		}
		s := sampler.NewKL(pair)
		return s, nil, s.Weight()
	case cqa.KLM:
		if indexed {
			s := sampler.NewKLMIndexed(pair)
			return s, nil, s.Weight()
		}
		s := sampler.NewKLM(pair)
		return s, nil, s.Weight()
	}
	return nil, sampler.NewSymbolic(pair), 1
}

// replay re-runs the sequential schemes tuple by tuple, following cqa's
// own steps over one mt.New(seed) stream per pair: SelectKernel, the
// sampler constructor, then the estimator. It must reproduce the traced
// pass's per-tuple estimates and draw counts exactly, so the per-layer
// numbers describe the program the end-to-end numbers measured.
func (d *estData) replay(rep *report, root *span, ref estPass) {
	ctx := context.Background()
	var tuples, indexed, mismatches int64
	var intnDraws, intnBlocks, intnSingle float64
	for si, label := range schemeNames {
		run := d.runs[si]
		var initNS, batchNS, batchDraws, estNS, draws int64
		var phases [3]int64
		var coverDraws, coverChecks int64
		var ntuples int64
		for pi, p := range d.pairs {
			op := root.op("replay." + label + " " + p.name)
			src := mt.New(p.seed)
			want, wantDraws := ref.answers[si][pi], ref.draws[si][pi]
			for i, e := range p.set.Entries {
				kernel := sampler.SelectKernel(e.Pair)
				if si == 0 {
					tuples++
					if kernel == sampler.Indexed {
						indexed++
					}
				}
				sp := op.call("sampler.New")
				t0 := time.Now()
				s, space, weight := newReplaySampler(e.Pair, run.scheme, kernel)
				t1 := time.Now()
				sp.done()
				ep := op.call("estimator")
				var r estimator.Result
				var err error
				var ts *timedSampler
				var cs *countingSpace
				if space != nil {
					cs = &countingSpace{SymbolicSpace: space}
					r, err = estimator.SelfAdjustingCoverageContext(ctx, cs, d.eps, d.delta, src, estimator.Budget{})
				} else {
					ts = &timedSampler{s: s}
					r, err = estimator.MonteCarloContext(ctx, ts, d.eps, d.delta, src, estimator.Budget{})
				}
				t2 := time.Now()
				ep.done()
				rep.op(err)
				initNS += int64(t1.Sub(t0))
				estNS += int64(t2.Sub(t1))
				draws += r.Samples
				ntuples++
				for k := range phases {
					phases[k] += r.Phases[k]
				}
				if cs != nil {
					coverDraws += cs.draws
					coverChecks += cs.checks
				} else {
					batchNS += ts.ns
					batchDraws += ts.draws
					var singles int
					for _, sz := range e.Pair.BlockSizes {
						if sz == 1 {
							singles++
						}
					}
					intnDraws += float64(r.Samples)
					intnBlocks += float64(r.Samples) * float64(len(e.Pair.BlockSizes))
					intnSingle += float64(r.Samples) * float64(singles)
				}
				est := math.Min(math.Max(r.Estimate*weight, 0), 1)
				if i >= len(want) || i >= len(wantDraws) || est != want[i] || r.Samples != wantDraws[i] {
					if mismatches == 0 {
						rep.check(false, "replay %s %s tuple %d: estimate %v with %d draws, cqa gave %v with %d",
							label, p.name, i, est, r.Samples, at(want, i), at(wantDraws, i))
					}
					mismatches++
				}
			}
			op.done()
		}
		if ntuples > 0 {
			rep.set("sampler.init_ns_per_tuple."+label, float64(initNS)/float64(ntuples))
		}
		rep.set("estimator.draws."+label, float64(draws))
		if label == "Cover" {
			// The coverage walk interleaves Draw and InSet inside the
			// estimator loop; from outside it cannot be split without
			// timing single draws, so its whole time counts as both.
			rep.set("estimator.self_s.Cover", float64(estNS)/1e9)
			if coverDraws > 0 {
				rep.set("sampler.ns_per_draw.Cover", float64(estNS)/float64(coverDraws))
				rep.set("sampler.checks_per_draw.Cover", float64(coverChecks)/float64(coverDraws))
			}
			continue
		}
		rep.set("estimator.self_s."+label, float64(estNS-batchNS)/1e9)
		if batchDraws > 0 {
			rep.set("sampler.ns_per_draw."+label, float64(batchNS)/float64(batchDraws))
		}
		for k, phase := range []string{"stop", "var", "final"} {
			rep.set("estimator.phase_draws."+phase+"."+label, float64(phases[k]))
		}
	}
	root.done()
	rep.check(mismatches == 0, "replay differs from cqa on %d tuples", mismatches)
	if tuples > 0 {
		rep.set("sampler.indexed_share", float64(indexed)/float64(tuples))
	}
	if intnDraws > 0 {
		rep.set("mt.intn_per_draw", intnBlocks/intnDraws)
		rep.set("mt.singleton_block_share", intnSingle/intnBlocks)
	}
	rep.set("mt.intn_ns", d.intnNS())
}

func at[T any](xs []T, i int) any {
	if i < len(xs) {
		return xs[i]
	}
	return "nothing"
}

// intnSink keeps the Intn timing loop from being optimised away.
var intnSink int

// intnNS times (*mt.Source).Intn over the workload's block sizes, every
// block of every pair once per round, for at least a million calls.
func (d *estData) intnNS() float64 {
	var sizes []int
	for _, p := range d.pairs {
		for _, e := range p.set.Entries {
			for _, sz := range e.Pair.BlockSizes {
				sizes = append(sizes, int(sz))
			}
		}
	}
	if len(sizes) == 0 {
		return 0
	}
	rounds := 1 + 1_000_000/len(sizes)
	src := mt.New(mt.DefaultSeed)
	sum := 0
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, n := range sizes {
			sum += src.Intn(n)
		}
	}
	dt := time.Since(t0)
	intnSink = sum
	return float64(dt.Nanoseconds()) / float64(rounds*len(sizes))
}
