package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"cqabench/internal/cqa"
	"cqabench/internal/harness"
	"cqabench/internal/scenario"
)

// cmdGrid regenerates the full appendix matrix (Figures 6–13): every
// Noise[q, j], Balance[p, j] and Joins[p, q] scenario over the requested
// level grids, writing one text table and one CSV per scenario into a
// directory. With the default reduced grids this is minutes of work; the
// paper-scale grids are a flag away (and a weekend of CPU).
func cmdGrid(args []string) error {
	fs := flag.NewFlagSet("grid", flag.ContinueOnError)
	sf := fs.Float64("sf", 0.0002, "TPC-H scale factor")
	seed := fs.Uint64("seed", 1, "PRNG seed")
	timeout := fs.Duration("timeout", 5*time.Second, "per (pair, scheme) timeout")
	queries := fs.Int("queries", 1, "queries per join level")
	outDir := fs.String("out", "grid-results", "output directory")
	noiseLevels := fs.String("noise-levels", "0.2,0.6,1.0", "noise percentages")
	balanceLevels := fs.String("balance-levels", "0,0.5,1.0", "balance targets")
	joinLevels := fs.String("join-levels", "1,2,3", "join counts")
	families := fs.String("families", "noise,balance,joins", "which scenario families to run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	noises, err := parseLevels("noise-levels", *noiseLevels, nil)
	if err != nil {
		return err
	}
	balances, err := parseLevels("balance-levels", *balanceLevels, nil)
	if err != nil {
		return err
	}
	joinFloats, err := parseLevels("join-levels", *joinLevels, nil)
	if err != nil {
		return err
	}
	joins := joinCounts(joinFloats)

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}

	labCfg := scenario.DefaultConfig()
	labCfg.ScaleFactor = *sf
	labCfg.Seed = *seed
	labCfg.QueriesPerJoin = *queries
	lab, err := scenario.NewLab(labCfg)
	if err != nil {
		return err
	}
	hcfg := harness.Config{Opts: cqa.DefaultOptions(), Timeout: *timeout, Schemes: cqa.Schemes}
	ctx := context.Background()

	emit := func(name string, fig *harness.Figure, table string) error {
		if err := os.WriteFile(filepath.Join(*outDir, name+".txt"), []byte(table), 0o644); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(*outDir, name+".csv"))
		if err != nil {
			return err
		}
		if err := fig.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		fmt.Println("wrote", name)
		return f.Close()
	}

	fams := strings.Split(*families, ",")
	has := func(f string) bool {
		for _, x := range fams {
			if strings.TrimSpace(x) == f {
				return true
			}
		}
		return false
	}

	if has("noise") {
		for _, q := range balances {
			for _, j := range joins {
				w, err := lab.NoiseScenario(q, j, noises)
				if err != nil {
					return err
				}
				fig, err := harness.RunNoise(ctx, w, hcfg)
				if err != nil {
					return err
				}
				if err := emit(fmt.Sprintf("noise_b%02.0f_j%d", q*100, j), fig, fig.Table()); err != nil {
					return err
				}
			}
		}
	}
	if has("balance") {
		for _, p := range noises {
			for _, j := range joins {
				w, err := lab.BalanceScenario(p, j, balances)
				if err != nil {
					return err
				}
				fig, err := harness.RunBalance(ctx, w, hcfg)
				if err != nil {
					return err
				}
				if err := emit(fmt.Sprintf("balance_p%03.0f_j%d", p*100, j), fig, fig.Table()); err != nil {
					return err
				}
			}
		}
	}
	if has("joins") {
		for _, p := range noises {
			for _, q := range balances {
				w, err := lab.JoinsScenario(p, q, joins)
				if err != nil {
					return err
				}
				fig, err := harness.RunJoins(ctx, w, hcfg)
				if err != nil {
					return err
				}
				if err := emit(fmt.Sprintf("joins_p%03.0f_b%02.0f", p*100, q*100), fig, fig.ShareTable()); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// familyLevels are the default x-axis levels of each scenario family
// (figure, run and export).
var familyLevels = map[string][]float64{
	"noise":   {0.2, 0.4, 0.6, 0.8, 1.0},
	"balance": {0, 0.25, 0.5, 0.75, 1.0},
	"joins":   {1, 2, 3},
}

// parseLevels reads a comma-separated list of levels from the flag
// named name; an empty value selects def. Every token must be a finite
// number: a bad one fails with an error naming the flag and the token
// instead of silently reading as 0.
func parseLevels(name, value string, def []float64) ([]float64, error) {
	if value == "" {
		return def, nil
	}
	var out []float64
	for _, tok := range strings.Split(value, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("-%s: bad level %q in %q", name, tok, value)
		}
		out = append(out, v)
	}
	return out, nil
}

// joinCounts converts join levels to the join counts the lab takes.
func joinCounts(levels []float64) []int {
	out := make([]int, len(levels))
	for i, v := range levels {
		out[i] = int(v)
	}
	return out
}
