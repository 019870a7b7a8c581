package experiments

import (
	"fmt"
	"math"

	"mellow/internal/config"
	"mellow/internal/policy"
	"mellow/internal/scenario"
	"mellow/internal/stats"
)

// fig17Expos are the ExpoFactors Figure 17 sweeps.
var fig17Expos = []float64{1.0, 1.5, 2.0, 2.5, 3.0}

// planFig17 runs Norm, Slow+SC and BE-Mellow+SC over the suite once per
// ExpoFactor.
func planFig17(_ config.Config, workloads []string) []*scenario.Scenario {
	var plan []*scenario.Scenario
	for _, e := range fig17Expos {
		sc := matrix("fig17", workloads, policy.Norm(), policy.Slow().WithSC(), policy.BEMellow().WithSC())
		sc.Overrides = &scenario.Overrides{ExpoFactor: &e}
		plan = append(plan, sc)
	}
	return plan
}

// renderFig17 regenerates Figure 17: geometric-mean lifetime of Slow+SC
// and BE-Mellow+SC across the suite as the latency/endurance ExpoFactor
// sweeps 1.0–3.0, with Norm as the (ExpoFactor-independent) reference.
func renderFig17(o Options, sweep []*scenario.Result) error {
	t := stats.Table{
		Title:  "Figure 17: lifetime (geomean years) vs ExpoFactor",
		Header: []string{"ExpoFactor", "Norm", "Slow+SC", "BE-Mellow+SC", "BE-Mellow+SC/Norm"},
	}
	for k, e := range fig17Expos {
		res := keyed(sweep[k])
		geo := func(name string) float64 {
			var ys []float64
			for _, w := range o.workloads() {
				y := res[[2]string{name, w}].LifetimeYears()
				if !math.IsInf(y, 1) {
					ys = append(ys, y)
				}
			}
			return stats.Geomean(ys)
		}
		norm, slow, be := geo("Norm"), geo("Slow+SC"), geo("BE-Mellow+SC")
		t.AddRow(fmt.Sprintf("%.1f", e), stats.F(norm, 2), stats.F(slow, 2),
			stats.F(be, 2), stats.F(be/norm, 2)+"x")
	}
	return t.Fprint(o.Out)
}

// fig18Banks are the bank counts Figure 18 sweeps.
var fig18Banks = []int{16, 8, 4}

// planFig18 runs GemsFDTD under Norm and BE-Mellow+SC once per bank
// count.
func planFig18(config.Config, []string) []*scenario.Scenario {
	var plan []*scenario.Scenario
	for _, banks := range fig18Banks {
		sc := matrix("fig18", []string{"GemsFDTD"}, policy.Norm(), policy.BEMellow().WithSC())
		sc.Overrides = &scenario.Overrides{Banks: &banks}
		plan = append(plan, sc)
	}
	return plan
}

// renderFig18 regenerates Figure 18: GemsFDTD under 4, 8 and 16 banks —
// (a) lifetime, (b) bank utilization, (c) eager writes, (d) writes
// issued to banks by pulse.
func renderFig18(o Options, sweep []*scenario.Result) error {
	t := stats.Table{
		Title: "Figure 18: GemsFDTD vs bank-level parallelism",
		Header: []string{"banks", "policy", "lifetime (y)", "bank util",
			"eager writes", "normal writes", "slow writes", "cancelled"},
	}
	for k, banks := range fig18Banks {
		for _, c := range sweep[k].Cells {
			r := c.Result
			t.AddRow(fmt.Sprintf("%d", banks), c.Policy,
				formatYears(r.LifetimeYears()),
				stats.Pct(r.Mem.AvgUtilization),
				fmt.Sprintf("%d", r.Mem.EagerDone),
				fmt.Sprintf("%d", r.Mem.WritesByMode[0]),
				fmt.Sprintf("%d", r.Mem.SlowWrites()),
				fmt.Sprintf("%d", r.Mem.TotalCancelled()))
		}
	}
	return t.Fprint(o.Out)
}

// fig19Statics is the static-mechanism grid Figure 19 compares against:
// every write latency, plain / cancellable / eager+cancellable.
func fig19Statics() []policy.Spec {
	// Eager variants of the static policies.
	return append(fig2Specs(), policy.ENorm().WithNC(), policy.ESlow().WithSC())
}

// fig19Ours is the policy Figure 19 pits against the statics.
func fig19Ours() policy.Spec { return policy.BEMellow().WithSC().WithWQ() }

// planFig19 runs the static grid and BE-Mellow+SC+WQ over the suite;
// the grid already holds the Norm baseline.
func planFig19(_ config.Config, workloads []string) []*scenario.Scenario {
	return []*scenario.Scenario{matrix("fig19", workloads, append(fig19Statics(), fig19Ours())...)}
}

// renderFig19 regenerates Figure 19: for each workload, find the best
// static mechanism that guarantees the 8-year lifetime and compare it
// with BE-Mellow+SC+WQ.
func renderFig19(o Options, sweep []*scenario.Result) error {
	statics, ours, res := fig19Statics(), fig19Ours(), keyed(sweep[0])
	const floor = 8.0
	t := stats.Table{
		Title: "Figure 19: BE-Mellow+SC+WQ vs best static mechanism " +
			"(IPC normalized to Norm; best static must reach 8 years)",
		Header: []string{"workload", "best static", "static IPC", "static life",
			"ours IPC", "ours life", "ours >= static"},
	}
	wins := 0
	for _, w := range o.workloads() {
		base := res[[2]string{"Norm", w}]
		bestName, bestIPC, bestLife := "(none)", 0.0, 0.0
		for _, s := range statics {
			r := res[[2]string{s.Name, w}]
			if r.LifetimeYears() < floor {
				continue
			}
			if r.IPC > bestIPC {
				bestName, bestIPC, bestLife = s.Name, r.IPC, r.LifetimeYears()
			}
		}
		mine := res[[2]string{ours.Name, w}]
		ok := mine.IPC >= bestIPC*0.995
		if ok {
			wins++
		}
		t.AddRow(w, bestName,
			stats.F(bestIPC/base.IPC, 3), formatYears(bestLife),
			stats.F(mine.IPC/base.IPC, 3), formatYears(mine.LifetimeYears()),
			fmt.Sprintf("%v", ok))
	}
	t.AddRow(fmt.Sprintf("wins: %d/%d", wins, len(o.workloads())))
	return t.Fprint(o.Out)
}
