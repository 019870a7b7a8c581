package experiments

import (
	"context"
	"io"
	"sync"
	"testing"

	"mellow/internal/policy"
	"mellow/internal/scenario"
	"mellow/internal/sched"
	"mellow/internal/sim"
)

// TestRunAllProgressOnError: a failing cell of a multi-scenario plan
// must still reach Done, once, under its global index — previously a
// failed sweep's last reported progress froze at an arbitrary value.
// Cell 1 cancels the run as it starts, so it fails and cancels whatever
// has not finished yet.
func TestRunAllProgressOnError(t *testing.T) {
	ResetCache()
	cfg := tinyConfig(301)
	plan := []*scenario.Scenario{
		matrix("a", []string{"stream"}, policy.Norm()),
		matrix("b", []string{"stream", "gups"}, policy.Norm()),
	}
	var want []scenario.Cell
	for _, sc := range plan {
		want = append(want, sc.Cells()...)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	done := map[int]scenario.Cell{}
	calls := 0
	_, err := RunScenario(ctx, cfg, plan, CellHooks{
		Start: func(i int, _ scenario.Cell) Observation {
			if i == 1 {
				cancel()
			}
			return Observation{}
		},
		Done: func(i int, c scenario.Cell, _ Instrumented, _ error) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			done[i] = c
		},
	})
	if err == nil {
		t.Fatal("cancelled plan succeeded")
	}
	if calls != len(want) {
		t.Fatalf("Done fired %d times, want %d (every attempt, failures included)", calls, len(want))
	}
	for i, c := range want {
		if done[i] != c {
			t.Errorf("cell %d reached Done as %+v, want %+v", i, done[i], c)
		}
	}
}

// TestBudgetBoundsConcurrentSims is the scheduler acceptance check at
// the harness level: with budget B, hammering Run from many
// goroutines never executes more than B simulations at once. Run with
// -race in CI.
func TestBudgetBoundsConcurrentSims(t *testing.T) {
	ResetCache()
	old := sched.Default().Stats().Budget
	const budget = 2
	sched.Default().SetBudget(budget)
	defer sched.Default().SetBudget(old)

	workloads := []string{"stream", "gups", "mcf", "lbm", "milc", "hmmer"}
	var wg sync.WaitGroup
	for i, w := range workloads {
		c := builtinCell(t, tinyConfig(uint64(400+i)), policy.Norm(), w) // distinct keys: no memo reuse
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := Run(context.Background(), c, Observation{}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	st := CacheSnapshot()
	if st.Misses != uint64(len(workloads)) {
		t.Fatalf("misses = %d, want %d distinct simulations", st.Misses, len(workloads))
	}
	if st.PeakRunning > budget {
		t.Fatalf("peak concurrent simulations = %d, exceeds budget %d", st.PeakRunning, budget)
	}
	if st.PeakRunning == 0 {
		t.Fatal("no simulation ever held a scheduler slot")
	}
}

// TestExt3ObservedReportsEverySimulation: an observed experiment hands
// Done a series for every simulation it runs, and every cell of its
// plan reaches Done. ext3's ablation rows share one (policy, workload)
// pair, so each must land in its own scenario, not be keyed by that
// pair.
func TestExt3ObservedReportsEverySimulation(t *testing.T) {
	ResetCache()
	e, err := ByID("ext3")
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Cfg: tinyConfig(17), Out: io.Discard, Workloads: []string{"gups"}}
	total := 0
	for _, sc := range e.Plan(o.Cfg, o.Workloads) {
		total += len(sc.Cells())
	}
	var mu sync.Mutex
	var series, done int
	err = e.Run(o, CellHooks{
		Start: func(int, scenario.Cell) Observation { return Observation{Epoch: sim.NS(5_000)} },
		Done: func(_ int, _ scenario.Cell, in Instrumented, err error) {
			mu.Lock()
			defer mu.Unlock()
			done++
			if err == nil && len(in.Series) > 0 {
				series++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sims := int(CacheSnapshot().Misses)
	if sims == 0 || series != sims {
		t.Errorf("Done carried %d series for %d simulations", series, sims)
	}
	if done == 0 || done != total {
		t.Errorf("Done fired %d times, want the plan's %d cells", done, total)
	}
}
