// Command perfbench is the repository's benchmark: one process runs one
// workload for a fixed wall-clock window, checks every output it
// produces, and prints one JSON result line.
//
//	perfbench --workload stencil --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it runs the same loop with the per-layer probes on and
// reports the per-layer metrics instead. It must run from the root of
// the repository, because the service workload reads scenarios/. See
// README.md for the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// defaultSeed is the seed whose simulated statistics are pinned by
// digests.json.
const defaultSeed = 1

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's single-line result.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run holds one invocation's parameters and its running tally.
type run struct {
	seed    uint64
	window  time.Duration
	trace   bool
	metrics map[string]metric
	// warmup and detailed set the length of each simulation of the
	// simulation workloads.
	warmup, detailed uint64
	// digests fingerprints the simulated results a run checked, so a
	// test can tell that a new seed produced new inputs.
	digests []string

	attempted, failed int
}

func newRun(seed uint64, window time.Duration, traced bool) *run {
	return &run{
		seed:     seed,
		window:   window,
		trace:    traced,
		metrics:  map[string]metric{},
		warmup:   simWarmup,
		detailed: simDetailed,
	}
}

// report is the run's result line.
func (r *run) report() report {
	return report{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
}

func (r *run) put(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		// JSON cannot carry these; a metric that produces one is a
		// benchmark defect, reported as a failed operation.
		r.attempted++
		r.fail("metric %s is %v", name, v)
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// fail counts one failed operation. Every failure is also attempted.
func (r *run) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
}

// workloads maps each name in BENCHMARK.json to the function that runs it.
var workloads = map[string]func(*run) error{
	"stencil":       simWorkloads["stencil"].run,
	"pointer-chase": simWorkloads["pointer-chase"].run,
	"hot-set":       simWorkloads["hot-set"].run,
	"service":       runService,
}

func main() {
	name := flag.String("workload", "", "workload to run: stencil, pointer-chase, hot-set or service")
	seed := flag.Uint64("seed", defaultSeed, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 25, "measurement window in seconds")
	traced := flag.Int("trace", 0, "1 runs the per-layer probes and reports per-layer metrics")
	flag.Parse()

	drive, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %v, --seconds >= 1 and --trace 0 or 1\n", names)
		os.Exit(2)
	}
	r := newRun(*seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err := drive(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(r.report())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
