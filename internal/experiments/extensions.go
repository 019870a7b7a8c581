package experiments

import (
	"fmt"
	"strings"

	"mellow/internal/cache"
	"mellow/internal/config"
	"mellow/internal/core"
	"mellow/internal/nvm"
	"mellow/internal/policy"
	"mellow/internal/rng"
	"mellow/internal/scenario"
	"mellow/internal/sched"
	"mellow/internal/stats"
	"mellow/internal/wear"
)

// The ext* experiments go beyond the paper's figures: they implement the
// design-space explorations §VI-I and §VIII name as future work, plus
// ablations of the parameters DESIGN.md calls out.

func init() {
	registry = append(registry,
		Experiment{"ext1", "Extension: multi-latency Mellow Writes (§VIII future work)", planExt1, renderExt1},
		Experiment{"ext2", "Extension: dead-block (decay) prediction for eager write-backs (§VII)", planExt2, renderExt2},
		Experiment{"ext3", "Ablation: eager queue depth, drain thresholds, Start-Gap psi", planExt3, renderExt3},
		Experiment{"ext4", "Extension: write pausing vs write cancellation", planExt4, renderExt4},
		Experiment{"ext5", "Validation: Start-Gap leveling efficiency vs the 0.9 assumption", analytic, renderExt5},
		Experiment{"ext6", "Extension: multiprogrammed mixes sharing the memory system", analytic, renderExt6},
		Experiment{"ext7", "Extension: technology corners (PCM-like, high/low-endurance ReRAM)", planExt7, renderExt7},
		Experiment{"ext8", "Extension: Mellow policies x wear-leveling backends (Start-Gap, WoLFRaM, SoftWear)", planExt8, renderExt8},
	)
}

// ext1Specs is ext1's line-up: the two-pulse BE-Mellow+SC against the
// graded multi-latency variant (+ML), which §VI-I suggests for the
// benchmarks where a fixed 3× pulse is too blunt.
func ext1Specs() []policy.Spec {
	return []policy.Spec{
		policy.Norm(),
		policy.BEMellow().WithSC(),
		policy.BEMellow().WithSC().WithML(),
		policy.BEMellow().WithSC().WithWQ(),
		policy.BEMellow().WithSC().WithML().WithWQ(),
	}
}

func planExt1(_ config.Config, workloads []string) []*scenario.Scenario {
	return []*scenario.Scenario{matrix("ext1", workloads, ext1Specs()...)}
}

func renderExt1(o Options, sweep []*scenario.Result) error {
	specs, res := ext1Specs(), keyed(sweep[0])
	t := stats.Table{
		Title:  "Extension 1: graded write pulses (IPC vs Norm / lifetime years)",
		Header: append([]string{"workload"}, policy.Names(specs)...),
	}
	for _, w := range o.workloads() {
		base := res[[2]string{"Norm", w}]
		row := []string{w}
		for _, s := range specs {
			r := res[[2]string{s.Name, w}]
			row = append(row, fmt.Sprintf("%.2f/%s", r.IPC/base.IPC, formatYears(r.LifetimeYears())))
		}
		t.AddRow(row...)
	}
	return t.Fprint(o.Out)
}

// ext2Variants are the eager-candidate predictors ext2 compares: the
// paper's LRU-position profiler versus timeout-style dead-block (decay)
// prediction.
var ext2Variants = []struct{ label, predictor string }{
	{"lru-profile (paper)", cache.PredictorLRUProfile},
	{"decay (dead-block)", cache.PredictorDecay},
}

// planExt2 runs BE-Mellow+SC over the suite once per predictor, then a
// Norm baseline on the base configuration.
func planExt2(_ config.Config, workloads []string) []*scenario.Scenario {
	var plan []*scenario.Scenario
	for _, v := range ext2Variants {
		sc := matrix("ext2", workloads, policy.BEMellow().WithSC())
		sc.Overrides = &scenario.Overrides{EagerPredictor: &v.predictor}
		plan = append(plan, sc)
	}
	return append(plan, matrix("ext2", workloads, policy.Norm()))
}

func renderExt2(o Options, sweep []*scenario.Result) error {
	norm := sweep[len(ext2Variants)]
	t := stats.Table{
		Title: "Extension 2: eager-candidate predictor " +
			"(IPC vs Norm / lifetime years / wasted eager writes)",
		Header: []string{"workload", ext2Variants[0].label, ext2Variants[1].label},
	}
	for k, w := range o.workloads() {
		base := norm.Cells[k].Result
		row := []string{w}
		for v := range ext2Variants {
			r := sweep[v].Cells[k].Result
			row = append(row, fmt.Sprintf("%.2f/%s/%d",
				r.IPC/base.IPC, formatYears(r.LifetimeYears()), r.Cache.WastedEager))
		}
		t.AddRow(row...)
	}
	return t.Fprint(o.Out)
}

// ext3Workload is the workload ext3 ablates: the suite's first.
func ext3Workload(workloads []string) string {
	if len(workloads) > 0 {
		return workloads[0]
	}
	return "GemsFDTD"
}

// ext3Cases are the controller parameters the design fixes by fiat: the
// 16-entry eager queue, the 16/32 drain thresholds and Start-Gap's
// gap-move interval psi.
var ext3Cases = []struct {
	label string
	mut   func(*config.Config)
}{
	{"baseline (eq=16, drain 16/32, psi=100)", func(*config.Config) {}},
	{"eager queue 4", func(c *config.Config) { c.Memory.EagerQueue = 4 }},
	{"eager queue 64", func(c *config.Config) { c.Memory.EagerQueue = 64 }},
	{"drain thresholds 8/16", func(c *config.Config) { c.Memory.DrainLow, c.Memory.DrainHigh = 8, 16 }},
	{"drain thresholds 24/32", func(c *config.Config) { c.Memory.DrainLow = 24 }},
	{"Start-Gap psi 10", func(c *config.Config) { c.Memory.StartGapPsi = 10 }},
	{"Start-Gap psi 1000", func(c *config.Config) { c.Memory.StartGapPsi = 1000 }},
	{"2 channels", func(c *config.Config) { c.Memory.Channels = 2 }},
	{"FR-FCFS reads", func(c *config.Config) { c.Memory.Scheduler = "frfcfs" }},
	{"profile period 100us", func(c *config.Config) { c.Caches.ProfilePeriod /= 5 }},
	{"useless threshold 1/8", func(c *config.Config) { c.Caches.UselessHitRatio = 1.0 / 8.0 }},
}

// planExt3 runs BE-Mellow+SC on one workload once per ablated
// configuration.
func planExt3(base config.Config, workloads []string) []*scenario.Scenario {
	var plan []*scenario.Scenario
	for _, cse := range ext3Cases {
		cfg := base
		cse.mut(&cfg)
		sc := matrix("ext3", []string{ext3Workload(workloads)}, policy.BEMellow().WithSC())
		sc.Config = &cfg
		plan = append(plan, sc)
	}
	return plan
}

func renderExt3(o Options, sweep []*scenario.Result) error {
	t := stats.Table{
		Title:  fmt.Sprintf("Extension 3: parameter ablations (%s, BE-Mellow+SC)", ext3Workload(o.workloads())),
		Header: []string{"variant", "IPC", "lifetime (y)", "eager done", "drain time", "gap moves"},
	}
	for i, res := range sweep {
		r := res.Cells[0].Result
		t.AddRow(ext3Cases[i].label, stats.F(r.IPC, 3), formatYears(r.LifetimeYears()),
			fmt.Sprintf("%d", r.Mem.EagerDone), stats.Pct(r.Mem.DrainFraction),
			fmt.Sprintf("%d", r.Mem.GapMoves))
	}
	return t.Fprint(o.Out)
}

// ext4Specs compares read-preemption mechanisms: cancellation (+SC/+NC,
// the paper's choice) redoes the aborted pulse and wears the cell for
// the wasted fraction; pausing (+WP) resumes it. Qureshi et al. (HPCA
// 2010) introduced both; the paper adopts cancellation (§VII).
func ext4Specs() []policy.Spec {
	return []policy.Spec{
		policy.Norm(),
		policy.Slow(),
		policy.Slow().WithSC(),
		policy.Slow().WithWP(),
		policy.BEMellow().WithSC(),
		policy.BEMellow().WithWP(),
	}
}

func planExt4(_ config.Config, workloads []string) []*scenario.Scenario {
	return []*scenario.Scenario{matrix("ext4", workloads, ext4Specs()...)}
}

func renderExt4(o Options, sweep []*scenario.Result) error {
	specs, res := ext4Specs(), keyed(sweep[0])
	t := stats.Table{
		Title: "Extension 4: pausing vs cancellation " +
			"(IPC vs Norm / lifetime years / preemptions / mean read ns)",
		Header: append([]string{"workload"}, policy.Names(specs)...),
	}
	for _, w := range o.workloads() {
		base := res[[2]string{"Norm", w}]
		row := []string{w}
		for _, s := range specs {
			r := res[[2]string{s.Name, w}]
			pre := r.Mem.Cancellations + r.Mem.Pauses
			row = append(row, fmt.Sprintf("%.2f/%s/%d/%.0f",
				r.IPC/base.IPC, formatYears(r.LifetimeYears()), pre,
				r.Mem.ReadLatency.Mean()))
		}
		t.AddRow(row...)
	}
	return t.Fprint(o.Out)
}

// renderExt5 validates the Start-Gap efficiency assumption behind the §V
// lifetime model (and Ratio_quota = 0.9): it measures achieved leveling
// for representative write patterns across gap-move intervals. Memory
// write streams are cache-filtered and diffuse, which is the regime
// where the assumption holds; the table also shows the adversarial
// single-block case where plain Start-Gap cannot help (the original
// paper pairs it with randomized mapping for that threat).
func renderExt5(o Options, _ []*scenario.Result) error {
	const blocks = 4096
	const writes = 4_000_000
	patterns := []struct {
		name string
		mk   func(seed uint64) func() int64
	}{
		{"uniform (cache-filtered)", func(seed uint64) func() int64 {
			src := rng.New(seed)
			return func() int64 { return int64(src.Uintn(blocks)) }
		}},
		{"sequential sweep", func(seed uint64) func() int64 {
			var i int64
			return func() int64 { i++; return i % blocks }
		}},
		{"zipf 0.9 (skewed)", func(seed uint64) func() int64 {
			src := rng.New(seed)
			z := rng.NewZipf(src, blocks, 0.9)
			return func() int64 { return int64((z.Next() * 0x9E3779B1) % blocks) }
		}},
		{"single hot block", func(seed uint64) func() int64 {
			return func() int64 { return 0 }
		}},
	}
	t := stats.Table{
		Title:  "Extension 5: measured Start-Gap leveling efficiency (1.0 = ideal; model assumes 0.9)",
		Header: []string{"pattern", "psi=10", "psi=100", "psi=1000", "no leveling", "overhead@100"},
	}
	for _, pat := range patterns {
		row := []string{pat.name}
		var ov float64
		for _, psi := range []int{10, 100, 1000, 1 << 30} {
			res := wear.MeasureLeveling(blocks, psi, writes, pat.mk(7))
			row = append(row, stats.F(res.Efficiency, 3))
			if psi == 100 {
				ov = res.Overhead
			}
		}
		row = append(row, stats.Pct(ov))
		t.AddRow(row...)
	}
	return t.Fprint(o.Out)
}

// renderExt6 probes Mellow Writes under multiprogrammed mixes: several
// cores with private caches share the banks, eroding the idle time the
// mechanisms exploit — the multi-core analogue of Figure 18's bank-
// parallelism sensitivity.
func renderExt6(o Options, _ []*scenario.Result) error {
	mixes := [][]string{
		{"GemsFDTD", "milc"},
		{"lbm", "mcf"},
		{"stream", "gups"},
		{"lbm", "GemsFDTD", "gups", "milc"},
	}
	specs := []policy.Spec{policy.Norm(), policy.BEMellow().WithSC(), policy.BEMellow().WithSC().WithWQ()}
	t := stats.Table{
		Title:  "Extension 6: multiprogrammed mixes (per-core IPC sum / lifetime years / bank util)",
		Header: append([]string{"mix"}, policy.Names(specs)...),
	}
	for _, mix := range mixes {
		row := []string{strings.Join(mix, "+")}
		for _, s := range specs {
			// A mix models len(mix) cores against one memory system, so
			// it holds that many scheduler slots — the weighted analogue
			// of one slot per single-core simulation.
			release, err := sched.Default().Acquire(o.ctx(), int64(len(mix)))
			if err != nil {
				return err
			}
			m, err := core.RunMix(o.Cfg, s, mix)
			release()
			if err != nil {
				return err
			}
			row = append(row, fmt.Sprintf("%.2f/%s/%s",
				m.WeightedIPC(), formatYears(m.LifetimeYears()), stats.Pct(m.Mem.AvgUtilization)))
		}
		t.AddRow(row...)
	}
	return t.Fprint(o.Out)
}

// ext7Suite is the suite ext7 runs: the given one, or three
// representative workloads when it is larger.
func ext7Suite(workloads []string) []string {
	if len(workloads) > 3 {
		return []string{"GemsFDTD", "lbm", "gups"}
	}
	return workloads
}

// planExt7 runs Norm and BE-Mellow+SC once per technology corner of §II:
// a PCM-like device, a high-endurance ReRAM (wear limiting barely
// needed) and a scarce-endurance corner (wear limiting critical).
func planExt7(base config.Config, workloads []string) []*scenario.Scenario {
	var plan []*scenario.Scenario
	for _, p := range nvm.Presets() {
		cfg := base
		cfg.Memory.Device = p.Device
		sc := matrix("ext7", ext7Suite(workloads), policy.Norm(), policy.BEMellow().WithSC())
		sc.Config = &cfg
		plan = append(plan, sc)
	}
	return plan
}

func renderExt7(o Options, sweep []*scenario.Result) error {
	suite := ext7Suite(o.workloads())
	t := stats.Table{
		Title:  "Extension 7: technology corners (per workload: Norm lifetime -> BE-Mellow+SC lifetime, years)",
		Header: append([]string{"device"}, suite...),
	}
	for k, p := range nvm.Presets() {
		res := keyed(sweep[k])
		row := []string{p.Name}
		for _, w := range suite {
			n := res[[2]string{"Norm", w}].LifetimeYears()
			b := res[[2]string{"BE-Mellow+SC", w}].LifetimeYears()
			row = append(row, fmt.Sprintf("%s -> %s", formatYears(n), formatYears(b)))
		}
		t.AddRow(row...)
	}
	return t.Fprint(o.Out)
}

// ext8Specs is the Mellow policy line-up ext8 re-evaluates on top of
// each selectable wear-leveling backend. The paper's Tables I/II assume
// Start-Gap underneath every policy; WoLFRaM-style decoder remapping and
// SoftWear-style page-granularity software leveling charge different
// remap costs and level with different efficiency, so both the IPC and
// the lifetime columns move — the comparison PAPERS.md names as the
// natural modern baseline sweep.
func ext8Specs() []policy.Spec {
	return []policy.Spec{
		policy.Norm(),
		policy.BMellow().WithSC(),
		policy.BEMellow().WithSC(),
		policy.BEMellow().WithSC().WithWQ(),
	}
}

// planExt8 crosses the suite with every backend and the line-up.
func planExt8(_ config.Config, workloads []string) []*scenario.Scenario {
	sc := matrix("ext8", workloads, ext8Specs()...)
	sc.Levelers = wear.Backends()
	return []*scenario.Scenario{sc}
}

// renderExt8 prints a row per (workload, backend): consecutive runs of
// the scenario's workload-major, leveler-next cells. Norm leads the
// line-up, so each run's first cell is its same-backend baseline.
func renderExt8(o Options, sweep []*scenario.Result) error {
	specs := ext8Specs()
	t := stats.Table{
		Title: "Extension 8: wear-leveling backends x Mellow policies " +
			"(IPC vs same-backend Norm / lifetime years / migration writes)",
		Header: append([]string{"workload", "leveler"}, policy.Names(specs)...),
	}
	cells := sweep[0].Cells
	for len(cells) > 0 {
		row, base := []string{cells[0].Workload, cells[0].Leveler}, cells[0].Result
		for _, c := range cells[:len(specs)] {
			r := c.Result
			row = append(row, fmt.Sprintf("%.2f/%s/%d",
				r.IPC/base.IPC, formatYears(r.LifetimeYears()), r.Mem.GapMoves))
		}
		t.AddRow(row...)
		cells = cells[len(specs):]
	}
	return t.Fprint(o.Out)
}
