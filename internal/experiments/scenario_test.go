package experiments

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mellow/internal/config"
	"mellow/internal/core"
	"mellow/internal/policy"
	"mellow/internal/scenario"
	"mellow/internal/sim"
	"mellow/internal/trace"
)

// scenarioBase keeps scenario-runner tests fast and write-heavy: a
// small LLC fills within the short run so dirty evictions reach memory.
func scenarioBase() config.Config {
	cfg := config.Default()
	cfg.Run.WarmupInstructions = 50_000
	cfg.Run.DetailedInstructions = 100_000
	cfg.Caches.L3.SizeBytes = 256 << 10
	return cfg
}

// runOne runs a single scenario through RunScenario.
func runOne(ctx context.Context, base config.Config, sc *scenario.Scenario, hooks CellHooks) (*scenario.Result, error) {
	res, err := RunScenario(ctx, base, []*scenario.Scenario{sc}, hooks)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// A scenario cell for a builtin workload must report exactly what Run
// reports for the figure sweeps — one simulation path, one result.
func TestRunScenarioMatchesRunCached(t *testing.T) {
	ResetCache()
	base := scenarioBase()
	sc := &scenario.Scenario{
		Name:      "t",
		Workloads: []scenario.WorkloadRef{{Name: "gups"}},
		Policies:  []string{"Norm", "BE-Mellow+SC"},
	}
	res, err := runOne(context.Background(), base, sc, CellHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(res.Cells))
	}
	for _, cell := range res.Cells {
		pspec, err := policy.Parse(cell.Policy)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(context.Background(), builtinCell(t, base, pspec, cell.Workload), Observation{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cell.Result, want.Result) {
			t.Errorf("%s/%s: scenario result differs from Run", cell.Workload, cell.Policy)
		}
	}
}

// An inline spec spelling out a builtin's exact parameterization must
// reproduce the builtin's result bit for bit: under another name through
// its own memo key, under the builtin's name as a memo hit.
func TestInlineSpecMatchesBuiltin(t *testing.T) {
	ResetCache()
	base := scenarioBase()
	spec, err := trace.SpecByName("gups")
	if err != nil {
		t.Fatal(err)
	}
	pspec, err := policy.Parse("Norm")
	if err != nil {
		t.Fatal(err)
	}
	run := func(name string) core.Result {
		t.Helper()
		w, err := spec.Workload(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		ins, err := Run(context.Background(), Cell{Cfg: base, Policy: pspec, Workload: w}, Observation{})
		if err != nil {
			t.Fatal(err)
		}
		return ins.Result
	}
	inline := run("my-gups")
	builtin, err := Run(context.Background(), builtinCell(t, base, pspec, "gups"), Observation{})
	if err != nil {
		t.Fatal(err)
	}
	if st := CacheSnapshot(); st.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (the label enters the key)", st.Misses)
	}
	// Everything but the label matches.
	inline.Workload = builtin.Result.Workload
	if !reflect.DeepEqual(inline, builtin.Result) {
		t.Fatal("inline gups spec result differs from the builtin workload")
	}
	if same := run("gups"); !reflect.DeepEqual(same, builtin.Result) {
		t.Fatal("inline spec under the builtin's name differs from the builtin")
	}
	if st := CacheSnapshot(); st.Misses != 2 {
		t.Errorf("misses = %d, want 2 (same name and spec share the builtin's key)", st.Misses)
	}
}

// Run memoises an inline spec on its content hash: a second call with a
// separately built workload of the same spec must not simulate again.
func TestRunSpecCachedMemoises(t *testing.T) {
	ResetCache()
	base := scenarioBase()
	spec := trace.Spec{Kind: trace.KindStream, GapMean: 6, ReadArrays: 2, WriteArrays: 1, ArrayBytes: 4 << 20}
	pspec, err := policy.Parse("Norm")
	if err != nil {
		t.Fatal(err)
	}
	run := func() core.Result {
		t.Helper()
		w, err := spec.Workload("w", 0)
		if err != nil {
			t.Fatal(err)
		}
		ins, err := Run(context.Background(), Cell{Cfg: base, Policy: pspec, Workload: w}, Observation{})
		if err != nil {
			t.Fatal(err)
		}
		return ins.Result
	}
	r1 := run()
	before := CacheSnapshot().Hits
	if r2 := run(); !reflect.DeepEqual(r1, r2) {
		t.Fatal("memoised result differs")
	}
	if CacheSnapshot().Hits <= before {
		t.Fatal("second run of the spec missed the memo cache")
	}

	// A workload without a spec has no memo identity.
	fr, err := trace.FromReader("r", strings.NewReader("0 40 R\n"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), Cell{Cfg: base, Policy: pspec, Workload: fr}, Observation{}); err == nil {
		t.Fatal("Run accepted a workload without a spec")
	}
}

// Per-cell levelers override the effective configuration: distinct
// backends must yield distinct results on a write-heavy workload, while
// the "" leveler reproduces the base backend exactly.
func TestRunScenarioLevelerCells(t *testing.T) {
	ResetCache()
	base := scenarioBase()
	// The run must be long enough for dirty lines to evict all the way
	// to memory, and the softwear epoch tight enough that its remaps
	// (and charged copy writes) land within it — otherwise both
	// backends idle and report identical results.
	warmup, detailed := uint64(300_000), uint64(600_000)
	epoch := 256
	sc := &scenario.Scenario{
		Name:      "t",
		Workloads: []scenario.WorkloadRef{{Name: "GemsFDTD"}},
		Policies:  []string{"Norm"},
		Levelers:  []string{"", "startgap", "softwear"},
		Overrides: &scenario.Overrides{Warmup: &warmup, Detailed: &detailed, SoftWearEpochWrites: &epoch},
	}
	res, err := runOne(context.Background(), base, sc, CellHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 3 {
		t.Fatalf("cells = %d, want 3", len(res.Cells))
	}
	// base default is startgap: "" and "startgap" agree.
	if !reflect.DeepEqual(res.Cells[0].Result, res.Cells[1].Result) {
		t.Error(`"" leveler differs from the base backend`)
	}
	if reflect.DeepEqual(res.Cells[1].Result, res.Cells[2].Result) {
		t.Error("startgap and softwear report identical results on gups")
	}
}

// Two runs of one scenario encode byte-identical documents — the golden
// contract, independent of goroutine completion order.
func TestRunScenarioDeterministicBytes(t *testing.T) {
	base := scenarioBase()
	sc := &scenario.Scenario{
		Name:      "t",
		Workloads: []scenario.WorkloadRef{{Name: "gups"}, {Name: "stream"}},
		Policies:  []string{"Norm", "B-Mellow+SC"},
	}
	ResetCache()
	r1, err := runOne(context.Background(), base, sc, CellHooks{})
	if err != nil {
		t.Fatal(err)
	}
	b1, err := r1.Encode()
	if err != nil {
		t.Fatal(err)
	}
	ResetCache() // force full re-simulation
	r2, err := runOne(context.Background(), base, sc, CellHooks{})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := r2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatal("scenario documents differ across re-simulations")
	}
}

// The cell hooks see every cell exactly once, in the goroutine that
// runs it: Start's observation reaches the simulation, Done gets the
// cell's own outcome (failed and cancelled cells included), and an
// observed run's document is byte-identical to an unobserved one's.
func TestRunScenarioProgressAndErrors(t *testing.T) {
	ResetCache()
	base := scenarioBase()
	sc := &scenario.Scenario{
		Name:      "t",
		Workloads: []scenario.WorkloadRef{{Name: "gups"}},
		Policies:  []string{"Norm", "Slow"},
		Levelers:  []string{"", "softwear"},
	}
	plain, err := runOne(context.Background(), base, sc, CellHooks{})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	started := map[int]scenario.Cell{}
	done := map[int]int{}
	observed, err := runOne(context.Background(), base, sc, CellHooks{
		Start: func(i int, c scenario.Cell) Observation {
			mu.Lock()
			started[i] = c
			mu.Unlock()
			return Observation{Epoch: sim.NS(20_000), Metrics: true}
		},
		Done: func(i int, c scenario.Cell, in Instrumented, err error) {
			mu.Lock()
			done[i]++
			mu.Unlock()
			if err != nil || len(in.Series) == 0 || in.Metrics == nil || in.Result.Policy != c.Policy {
				t.Errorf("cell %d: err %v, %d samples, metrics %v, policy %q",
					i, err, len(in.Series), in.Metrics != nil, in.Result.Policy)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cells := sc.Cells()
	for i, c := range cells {
		if started[i] != c || done[i] != 1 {
			t.Errorf("cell %d: started as %+v, done %d times; want %+v once", i, started[i], done[i], c)
		}
	}
	pb, err := plain.Encode()
	if err != nil {
		t.Fatal(err)
	}
	ob, err := observed.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(pb) != string(ob) {
		t.Error("observing the cells changed the scenario document")
	}

	// Validation failures surface before any simulation.
	bad := &scenario.Scenario{Name: "t", Workloads: []scenario.WorkloadRef{{Name: "nope"}}, Policies: []string{"Norm"}}
	if _, err := runOne(context.Background(), base, bad, CellHooks{}); err == nil {
		t.Fatal("invalid scenario accepted")
	}
	// A cancelled context aborts, and every cell still reaches Done.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	failed := 0
	if _, err := runOne(ctx, base, sc, CellHooks{Done: func(_ int, _ scenario.Cell, _ Instrumented, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			failed++
		}
	}}); err == nil {
		t.Fatal("cancelled context not reported")
	}
	if failed != len(cells) {
		t.Errorf("cancelled run reached Done with %d failures, want %d", failed, len(cells))
	}
}

// The corpus runner: update mode creates goldens, compare mode then
// passes, and drift is reported per scenario while the rest still runs.
func TestRunScenarioCorpusUpdateThenCompare(t *testing.T) {
	ResetCache()
	base := scenarioBase()
	dir := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, "test-"+name+".json"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("one", `{"name":"one","workloads":[{"name":"gups"}],"policies":["Norm"]}`)
	write("two", `{"name":"two","workloads":[{"name":"stream"}],"policies":["Norm"]}`)

	// Compare with no goldens: every scenario fails with the hint, but
	// all are attempted.
	ocs, err := RunScenarioCorpus(context.Background(), base, dir, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ocs) != 2 || ocs[0].Err == nil || ocs[1].Err == nil {
		t.Fatalf("outcomes = %+v", ocs)
	}
	if !strings.Contains(ocs[0].Err.Error(), "-update") {
		t.Errorf("missing-golden hint absent: %v", ocs[0].Err)
	}

	// Update writes both goldens; a clean compare follows.
	ocs, err = RunScenarioCorpus(context.Background(), base, dir, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, oc := range ocs {
		if oc.Err != nil || !oc.Updated {
			t.Fatalf("update outcome: %+v", oc)
		}
	}
	var seen []string
	ocs, err = RunScenarioCorpus(context.Background(), base, dir, false, func(oc ScenarioOutcome) {
		seen = append(seen, oc.Name)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, oc := range ocs {
		if oc.Err != nil {
			t.Fatalf("fresh golden drifted: %v", oc.Err)
		}
	}
	if len(seen) != 2 || seen[0] != "one" || seen[1] != "two" {
		t.Errorf("onDone order = %v", seen)
	}

	// Tampered golden: that scenario fails, the other still passes.
	gold := scenario.ExpectedPath(filepath.Join(dir, "test-one.json"))
	if err := os.WriteFile(gold, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ocs, err = RunScenarioCorpus(context.Background(), base, dir, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ocs[0].Err == nil || ocs[1].Err != nil {
		t.Fatalf("tamper detection: %+v", ocs)
	}
}

// The committed corpus must pass against its committed goldens — the
// same gate CI and scripts/e2e_scenario.sh run through the binaries.
func TestCommittedScenarioCorpusGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus run in -short mode")
	}
	ResetCache()
	base := config.Default()
	base.Run.Seed = 1
	ocs, err := RunScenarioCorpus(context.Background(), base, filepath.Join("..", "..", "scenarios"), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ocs) < 24 {
		t.Fatalf("corpus has %d scenarios, want >= 24", len(ocs))
	}
	for _, oc := range ocs {
		if oc.Err != nil {
			t.Errorf("%s: %v", oc.Name, oc.Err)
		}
	}
}
