// Command mellowbench regenerates the paper's tables and figures.
//
// Usage:
//
//	mellowbench -exp fig11              # one figure, full settings
//	mellowbench -exp all                # everything (minutes)
//	mellowbench -exp fig10 -quick       # scaled-down run lengths
//	mellowbench -exp fig2 -workloads stream,lbm,gups
//	mellowbench -exp fig11 -json        # machine-readable reports
//	mellowbench -exp all -timeout 10m   # bound the whole run
//	mellowbench -exp all -parallel 4    # at most 4 concurrent simulations
//	mellowbench -exp fig11 -progress    # live sweep status on stderr
//	mellowbench -exp fig11 -interval 500us   # per-epoch time series as JSON
//	mellowbench -exp fig11 -metrics     # process metrics snapshot after the run
//	mellowbench -exp fig11 -trace out.trace.json   # execution trace for Perfetto
//	mellowbench -scenario-dir scenarios/          # run the declarative corpus against its goldens
//	mellowbench -scenario-dir scenarios/ -update  # regenerate the corpus goldens
//	mellowbench -follow job-000001 -server http://localhost:8077
//	mellowbench -list
//
// -follow switches mellowbench into client mode: it attaches to a
// running mellowd's GET /v1/jobs/{id}/events feed and prints one JSON
// line per event — the job's epoch series live, then the terminal
// done/failed event. The feed replays from the start, so following a
// finished job prints its complete series.
//
// Each experiment is a plan of scenarios plus a renderer; its cells run
// through the same scenario path as mellowd's jobs. -interval samples
// every cell at the given period of simulated time (the paper's
// T_sample is 500us) and dumps one JSON series record per cell, in the
// plan's cell order, after the tables — or embeds them in the reports
// with -json. -progress writes "done/total simulations" status lines to
// stderr as the cells finish. -trace records every cell's execution
// timeline (engine phases, epochs, per-bank reads, fast/slow/eager
// writes, cancellations, drain windows, Wear Quota flips) and writes
// one Chrome Trace Event Format file — open it at
// https://ui.perfetto.dev. Traced runs produce byte-identical tables
// and series to untraced ones.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"mellow"
	"mellow/internal/experiments"
	"mellow/internal/metrics"
	"mellow/internal/scenario"
	"mellow/internal/sched"
	"mellow/internal/server"
)

// runScenarioCorpus executes every scenario under dir in sorted order,
// comparing each result document against its committed .expected golden
// (or regenerating the goldens with -update). One line per scenario;
// any failure exits non-zero after the whole corpus has been attempted.
func runScenarioCorpus(ctx context.Context, cfg mellow.Config, dir string, update bool) {
	start := time.Now()
	failed := 0
	outcomes, err := experiments.RunScenarioCorpus(ctx, cfg, dir, update, func(oc experiments.ScenarioOutcome) {
		switch {
		case oc.Err != nil:
			failed++
			fmt.Fprintf(os.Stderr, "FAIL    %s: %v\n", oc.Name, oc.Err)
		case oc.Updated:
			fmt.Printf("updated %s (%d cells)\n", oc.Name, len(oc.Result.Cells))
		default:
			fmt.Printf("ok      %s (%d cells)\n", oc.Name, len(oc.Result.Cells))
		}
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mellowbench:", err)
		os.Exit(1)
	}
	fmt.Printf("[%d scenarios, %d failed, %v]\n", len(outcomes), failed, time.Since(start).Round(time.Millisecond))
	if failed > 0 {
		os.Exit(1)
	}
}

func main() {
	var (
		exp       = flag.String("exp", "all", `experiment id ("fig11", "tab4", ...) or "all"`)
		quick     = flag.Bool("quick", false, "scale run lengths down ~10x for a fast look")
		workloads = flag.String("workloads", "", "comma-separated subset of the suite")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		timeout   = flag.Duration("timeout", 0, "abort the run after this long (0: no limit)")
		parallel  = flag.Int("parallel", runtime.GOMAXPROCS(0), "process-wide cap on concurrent simulations")
		jsonOut   = flag.Bool("json", false, "emit reports as JSON (mellowd's experiment encoding)")
		withMet   = flag.Bool("metrics", false, "append a process metrics snapshot (scheduler, memo cache, runtime) as JSON")
		interval  = flag.Duration("interval", 0, "sample an epoch series at this period of simulated time (e.g. 500us, min 1us; 0: off)")
		progress  = flag.Bool("progress", false, "report sweep progress on stderr")
		traceOut  = flag.String("trace", "", "write every simulation's execution timeline to this file (Chrome Trace Event Format JSON, open in Perfetto)")
		follow    = flag.String("follow", "", "follow a mellowd job's live event stream by id and exit (client mode)")
		serverURL = flag.String("server", "http://localhost:8077", "mellowd base URL for -follow")
		leveler   = flag.String("leveler", "", `wear-leveling backend: "startgap" (default), "wolfram" or "softwear"`)
		scenDir   = flag.String("scenario-dir", "", "run every test-*.json scenario under this directory against its committed .expected golden and exit")
		update    = flag.Bool("update", false, "with -scenario-dir: regenerate the .expected goldens instead of comparing")
		list      = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *follow != "" {
		if err := followJob(*serverURL, *follow); err != nil {
			fmt.Fprintln(os.Stderr, "mellowbench:", err)
			os.Exit(1)
		}
		return
	}

	// Same floor mellowd enforces at admission: finer sampling than 1 µs
	// of simulated time produces an effectively unbounded series.
	if *interval > 0 && *interval < time.Microsecond {
		fmt.Fprintf(os.Stderr, "mellowbench: -interval %v below the 1µs floor\n", *interval)
		os.Exit(1)
	}
	// All simulations in the process share one scheduler: its budget is
	// the hard cap on concurrency however wide the sweeps fan out.
	sched.Default().SetBudget(int64(*parallel))

	if *list {
		for _, e := range mellow.Experiments() {
			fmt.Printf("%-6s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := mellow.DefaultConfig()
	cfg.Run.Seed = *seed
	if *leveler != "" {
		cfg.Memory.WearLeveler = *leveler
		if err := cfg.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, "mellowbench:", err)
			os.Exit(1)
		}
	}
	if *quick {
		cfg.Run.WarmupInstructions = 1_000_000
		cfg.Run.DetailedInstructions = 3_000_000
	}
	var suite []string
	if *workloads != "" {
		suite = strings.Split(*workloads, ",")
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *scenDir != "" {
		runScenarioCorpus(ctx, cfg, *scenDir, *update)
		return
	}

	var todo []mellow.Experiment
	if *exp == "all" {
		todo = mellow.Experiments()
	} else {
		e, err := mellow.ExperimentByID(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mellowbench:", err)
			os.Exit(1)
		}
		todo = []mellow.Experiment{e}
	}

	if len(suite) == 0 {
		suite = mellow.Workloads()
	}
	var reports []server.ExperimentReport
	var simTraces []*mellow.SimTrace
	for i, e := range todo {
		if !*jsonOut && i > 0 {
			fmt.Println()
		}
		start := time.Now()
		out := os.Stdout
		var buf bytes.Buffer
		opts := mellow.ExperimentOptions{Ctx: ctx, Cfg: cfg, Workloads: suite, Out: out}
		if *jsonOut {
			opts.Out = &buf
		}
		// The hooks slot each cell's series and timeline by its index in
		// the plan, and count finished cells for -progress.
		total := 0
		for _, sc := range e.Plan(cfg, suite) {
			total += len(sc.Cells())
		}
		var series []mellow.SeriesRecord
		if *interval > 0 {
			series = make([]mellow.SeriesRecord, total)
		}
		traces := make([]*mellow.SimTrace, total)
		ob := experiments.Observation{Epoch: mellow.NS(uint64(interval.Nanoseconds())), Trace: *traceOut != ""}
		var mu sync.Mutex
		attempts := 0
		err := e.Run(opts, experiments.CellHooks{
			Start: func(int, scenario.Cell) experiments.Observation { return ob },
			Done: func(i int, c scenario.Cell, in experiments.Instrumented, err error) {
				if err == nil && series != nil {
					series[i] = mellow.SeriesRecord{Workload: c.Workload.Name, Leveler: c.Leveler, Policy: c.Policy, Series: in.Series}
				}
				traces[i] = in.Trace
				if *progress {
					mu.Lock()
					attempts++
					fmt.Fprintf(os.Stderr, "mellowbench: %s: %d/%d simulations\n", e.ID, attempts, total)
					mu.Unlock()
				}
			},
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "mellowbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		if ob.Trace {
			simTraces = append(simTraces, traces...)
		}
		if *jsonOut {
			reports = append(reports, server.ExperimentReport{
				ID: e.ID, Title: e.Title, Output: buf.String(), Series: series,
			})
		} else {
			enc := json.NewEncoder(out)
			for _, rec := range series {
				if err := enc.Encode(rec); err != nil {
					fmt.Fprintln(os.Stderr, "mellowbench:", err)
					os.Exit(1)
				}
			}
			fmt.Printf("[%s completed in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mellowbench:", err)
			os.Exit(1)
		}
		doc := &mellow.TraceDoc{Sims: simTraces}
		werr := doc.WriteChrome(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "mellowbench:", werr)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "mellowbench: wrote %d simulation timelines to %s\n",
			len(simTraces), *traceOut)
	}
	// -metrics snapshots the same process-scope collectors mellowd
	// serves at /metrics — one taxonomy across both binaries. The
	// registry is built only now, after the sweeps, so the snapshot
	// reflects the whole run; without the flag nothing is registered
	// and output stays byte-identical to earlier releases.
	var snap *metrics.Snapshot
	if *withMet {
		reg := metrics.NewRegistry()
		server.RegisterProcessCollectors(reg)
		s := reg.Snapshot()
		snap = &s
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if *jsonOut {
		var payload any = reports
		if snap != nil {
			payload = struct {
				Reports []server.ExperimentReport `json:"reports"`
				Metrics *metrics.Snapshot         `json:"metrics"`
			}{Reports: reports, Metrics: snap}
		}
		if err := enc.Encode(payload); err != nil {
			fmt.Fprintln(os.Stderr, "mellowbench:", err)
			os.Exit(1)
		}
	} else if snap != nil {
		if err := enc.Encode(snap); err != nil {
			fmt.Fprintln(os.Stderr, "mellowbench:", err)
			os.Exit(1)
		}
	}
}
