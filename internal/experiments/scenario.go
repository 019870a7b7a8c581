package experiments

import (
	"context"
	"fmt"

	"mellow/internal/config"
	"mellow/internal/policy"
	"mellow/internal/scenario"
	"mellow/internal/trace"
)

// CellHooks observes a scenario's cells as they run. Both hooks run on
// the cell's own goroutine, concurrently with other cells, so per-cell
// state is best slotted by the cell index. The zero value observes
// nothing.
type CellHooks struct {
	// Start is called before cell i runs and returns the Observation it
	// runs under.
	Start func(i int, c scenario.Cell) Observation
	// Done is called once cell i has been attempted, with what it
	// produced (zero on failure) and its error: every cell, failed and
	// cancelled ones included, reaches Done exactly once.
	Done func(i int, c scenario.Cell, in Instrumented, err error)
}

// RunScenario executes declarative scenarios as one matrix: the cells
// of every scenario — each a workload × leveler × policy matrix — fan
// out in parallel through the memoised sched-governed simulation path
// under one global cell index, scenario by scenario in matrix order,
// and each scenario's cells land in matrix order so its result document
// is deterministic. Each scenario resolves its workloads once: builtins
// through trace.ByName, inline specs through Spec.Workload. Observers
// never change the result documents: an observed run returns the same
// bytes as an unobserved one.
func RunScenario(ctx context.Context, base config.Config, scs []*scenario.Scenario, hooks CellHooks) ([]*scenario.Result, error) {
	type planned struct {
		cell scenario.Cell
		run  Cell
		slot *scenario.CellResult
	}
	var cells []planned
	out := make([]*scenario.Result, len(scs))
	for k, sc := range scs {
		if err := sc.Validate(); err != nil {
			return nil, err
		}
		cfg, err := sc.EffectiveConfig(base)
		if err != nil {
			return nil, err
		}
		key, err := sc.RunKey(base)
		if err != nil {
			return nil, err
		}
		workloads := make(map[string]trace.Workload, len(sc.Workloads))
		for _, ref := range sc.Workloads {
			var w trace.Workload
			if ref.Spec != nil {
				w, err = ref.Spec.Workload(ref.Name, 0)
			} else {
				w, err = trace.ByName(ref.Name)
			}
			if err != nil {
				return nil, err
			}
			workloads[ref.Name] = w
		}
		policies := make(map[string]policy.Spec, len(sc.Policies))
		for _, p := range sc.Policies {
			if policies[p], err = policy.Parse(p); err != nil {
				return nil, err
			}
		}
		scCells := sc.Cells()
		out[k] = &scenario.Result{Scenario: sc.Name, Key: key, Cells: make([]scenario.CellResult, len(scCells))}
		for j, cell := range scCells {
			c := Cell{Cfg: cfg, Policy: policies[cell.Policy], Workload: workloads[cell.Workload.Name]}
			if cell.Leveler != "" {
				c.Cfg.Memory.WearLeveler = cell.Leveler
			}
			cells = append(cells, planned{cell, c, &out[k].Cells[j]})
		}
	}
	res, err := FanOut(ctx, len(cells), func(ctx context.Context, i int) (Instrumented, error) {
		var ob Observation
		if hooks.Start != nil {
			ob = hooks.Start(i, cells[i].cell)
		}
		in, err := Run(ctx, cells[i].run, ob)
		if hooks.Done != nil {
			hooks.Done(i, cells[i].cell, in, err)
		}
		return in, err
	})
	if err != nil {
		return nil, err
	}
	for i, p := range cells {
		*p.slot = scenario.CellResult{
			Workload: p.cell.Workload.Name,
			Leveler:  p.cell.Leveler,
			Policy:   p.cell.Policy,
			Result:   res[i].Result,
		}
	}
	return out, nil
}

// ScenarioOutcome reports one corpus scenario's run.
type ScenarioOutcome struct {
	Name string
	Path string
	// Updated marks a golden (re)written in update mode.
	Updated bool
	// Err is the run or golden-compare failure, nil on success.
	Err error
	// Result is the produced document (nil when the run itself failed).
	Result *scenario.Result
}

// RunScenarioCorpus discovers every test-*.json scenario under dir,
// runs each against base and compares (or, with update, regenerates)
// its committed .expected golden. Scenarios execute in sorted path
// order — their cells still fan out in parallel under the scheduler
// budget — and every scenario is attempted even after failures, so one
// run reports the whole corpus. onDone (optional) fires per scenario.
func RunScenarioCorpus(ctx context.Context, base config.Config, dir string, update bool, onDone func(ScenarioOutcome)) ([]ScenarioOutcome, error) {
	entries, err := scenario.LoadDir(dir)
	if err != nil {
		return nil, err
	}
	outcomes := make([]ScenarioOutcome, 0, len(entries))
	for _, e := range entries {
		oc := ScenarioOutcome{Name: e.Scenario.Name, Path: e.Path}
		res, err := RunScenario(ctx, base, []*scenario.Scenario{e.Scenario}, CellHooks{})
		if err != nil {
			oc.Err = fmt.Errorf("scenario %s: %v", e.Scenario.Name, err)
		} else {
			oc.Result = res[0]
			if update {
				oc.Err = oc.Result.WriteFile(scenario.ExpectedPath(e.Path))
				oc.Updated = oc.Err == nil
			} else {
				oc.Err = oc.Result.CompareFile(scenario.ExpectedPath(e.Path))
			}
		}
		if onDone != nil {
			onDone(oc)
		}
		outcomes = append(outcomes, oc)
		if err := ctx.Err(); err != nil {
			return outcomes, err
		}
	}
	return outcomes, nil
}
