// Command cqaperf is the repository's benchmark. It builds one of three
// workloads from a seed, measures it for a fixed time, checks every
// output it produced, and prints its metrics: the end-to-end metrics
// from an untraced run (-trace 0) or the per-layer metrics from a traced
// run (-trace 1). The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the lines before it
// name the workload's own metrics with their units.
//
// The library is driven through its public functions and the service
// through server.New/Start and HTTP on loopback; nothing inside the
// program is instrumented. See README.md for the workloads and the
// definition of every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	tiny     bool   // a seconds-long pass for tests
	out      string // where traces and synopsis caches go
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(config) (*report, error){
	"estimate": runEstimate,
	"prep":     runPrep,
	"serve":    runServe,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the workload and prints its report. It returns
// the process exit code: 0 when every check passed, 1 when a check
// failed (the result is still printed, with "correct": false), and 2
// when the workload could not run at all (nothing is printed).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cqaperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: estimate, prep or serve")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed builds the same inputs")
	seconds := fs.Float64("seconds", 30, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	size := fs.String("size", "full", "full, or tiny for a seconds-long pass (tests)")
	out := fs.String("out", ".bench_build", "directory for traces and synopsis caches")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok || (*trace != 0 && *trace != 1) || (*size != "full" && *size != "tiny") || *seconds <= 0 {
		fmt.Fprintf(stderr, "cqaperf: want -workload estimate|prep|serve, -trace 0|1, -size full|tiny, -seconds > 0\n")
		return 2
	}
	outDir, err := filepath.Abs(*out)
	if err == nil {
		err = os.MkdirAll(outDir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(stderr, "cqaperf: %v\n", err)
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		tiny:     *size == "tiny",
		out:      outDir,
	}
	rep, err := runner(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "cqaperf: %s: %v\n", cfg.workload, err)
		return 2
	}
	res, problems := rep.result(cfg.trace)
	rep.printNamed(stdout, cfg)
	for _, p := range problems {
		fmt.Fprintf(stderr, "cqaperf: %s: check failed: %s\n", cfg.workload, p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "cqaperf: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
