package harness

import (
	"context"
	"fmt"
	"io"
	"time"

	"cqabench/internal/scenario"
)

// ReportConfig drives a full benchmark report: the reduced grids used for
// each figure family.
type ReportConfig struct {
	Harness       Config
	NoiseLevels   []float64
	BalanceLevels []float64
	JoinLevels    []int
	// FixedBalance / FixedNoise / FixedJoins pin the non-varied
	// parameters per family, as the paper's representative plots do.
	FixedBalances []float64
	FixedNoise    float64
	FixedJoins    []int
	// Charts embeds ASCII charts next to each table.
	Charts bool
}

// DefaultReportConfig mirrors the representative sub-grid the paper's main
// body shows.
func DefaultReportConfig() ReportConfig {
	return ReportConfig{
		Harness:       DefaultConfig(),
		NoiseLevels:   []float64{0.2, 0.4, 0.6, 0.8, 1.0},
		BalanceLevels: []float64{0, 0.25, 0.5, 0.75, 1.0},
		JoinLevels:    []int{1, 2, 3},
		FixedBalances: []float64{0, 0.5},
		FixedNoise:    0.4,
		FixedJoins:    []int{1, 3},
		Charts:        true,
	}
}

// WriteReport runs the Noise, Balance and Joins families over the lab and
// writes a markdown report: per scenario a table (and optionally a chart),
// plus winner-per-scenario and preprocessing summaries. It is the
// machinery behind `cqabench report`.
func WriteReport(ctx context.Context, w io.Writer, lab *scenario.Lab, cfg ReportConfig) error {
	fmt.Fprintf(w, "# cqabench report\n\ngenerated %s; eps=%.2f delta=%.2f timeout=%s\n\n",
		time.Now().UTC().Format(time.RFC3339), cfg.Harness.Opts.Eps, cfg.Harness.Opts.Delta, cfg.Harness.Timeout)

	var prep []time.Duration
	emit := func(fig *Figure, share bool) {
		fmt.Fprintf(w, "## %s\n\n```\n", fig.Title)
		if share {
			fmt.Fprint(w, fig.ShareTable())
		} else {
			fmt.Fprint(w, fig.Table())
		}
		if cfg.Charts && !share {
			fmt.Fprint(w, "\n", fig.Chart(64, 12))
		}
		fmt.Fprintf(w, "```\n\nwinner: **%v**\n\n", fig.Winner())
		prep = append(prep, fig.PrepTimes...)
	}

	for _, bal := range cfg.FixedBalances {
		for _, j := range cfg.FixedJoins {
			wl, err := lab.NoiseScenario(bal, j, cfg.NoiseLevels)
			if err != nil {
				return err
			}
			fig, err := RunNoise(ctx, wl, cfg.Harness)
			if err != nil {
				return err
			}
			emit(fig, false)
		}
	}
	for _, j := range cfg.FixedJoins {
		wl, err := lab.BalanceScenario(cfg.FixedNoise, j, cfg.BalanceLevels)
		if err != nil {
			return err
		}
		fig, err := RunBalance(ctx, wl, cfg.Harness)
		if err != nil {
			return err
		}
		emit(fig, false)
	}
	for _, bal := range cfg.FixedBalances {
		wl, err := lab.JoinsScenario(cfg.FixedNoise, bal, cfg.JoinLevels)
		if err != nil {
			return err
		}
		fig, err := RunJoins(ctx, wl, cfg.Harness)
		if err != nil {
			return err
		}
		emit(fig, true)
	}

	// Preprocessing summary (Figure 3).
	fmt.Fprintf(w, "## Preprocessing (synopsis construction)\n\n")
	if len(prep) > 0 {
		var max, sum time.Duration
		for _, p := range prep {
			sum += p
			if p > max {
				max = p
			}
		}
		fmt.Fprintf(w, "%d synopsis builds; mean %s, max %s\n\n```\n",
			len(prep), (sum / time.Duration(len(prep))).Round(time.Microsecond), max.Round(time.Microsecond))
		bucket := max/10 + time.Millisecond
		for i, h := range PrepHistogram(prep, bucket) {
			if h == 0 {
				continue
			}
			fmt.Fprintf(w, "%8s-%8s %5.1f%%\n",
				(time.Duration(i) * bucket).Round(time.Millisecond),
				(time.Duration(i+1) * bucket).Round(time.Millisecond), h*100)
		}
		fmt.Fprint(w, "```\n")
	}
	return nil
}
