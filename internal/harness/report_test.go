package harness

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestWriteReport(t *testing.T) {
	l := testLab(t)
	cfg := ReportConfig{
		Harness:       fastConfig(),
		NoiseLevels:   []float64{0.4},
		BalanceLevels: []float64{0, 1},
		JoinLevels:    []int{1},
		FixedBalances: []float64{0},
		FixedNoise:    0.4,
		FixedJoins:    []int{1},
		Charts:        true,
	}
	cfg.Harness.Timeout = 4 * time.Second
	var b strings.Builder
	if err := WriteReport(context.Background(), &b, l, cfg); err != nil {
		t.Fatal(err)
	}
	rep := b.String()
	for _, want := range []string{
		"# cqabench report",
		"## Noise[0.0, 1]",
		"## Balance[0.4, 1]",
		"## Joins[0.4, 0.0]",
		"winner:",
		"## Preprocessing",
		"log time;", // chart embedded
	} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep[:min(len(rep), 2000)])
		}
	}
}
