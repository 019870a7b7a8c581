package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"mellow/internal/config"
	"mellow/internal/core"
	"mellow/internal/policy"
	"mellow/internal/trace"
)

// simWorkload is one whole-simulation workload: a builtin generator
// under one policy, simulated back to back through core.
type simWorkload struct {
	name     string
	workload string
	policy   string
}

// simWorkloads each put a different layer on top of the profile; see
// README.md for the figures behind each choice.
var simWorkloads = map[string]simWorkload{
	"stencil":       {"stencil", "GemsFDTD", "BE-Mellow+SC+WQ"},
	"pointer-chase": {"pointer-chase", "mcf", "BE-Mellow+SC+WQ"},
	"hot-set":       {"hot-set", "hmmer", "Norm"},
}

// Run length of one simulation and the number of distinct cells a run
// cycles through. Every cell is simulated once before the window and
// again inside it, so each run checks that re-simulation is
// byte-identical.
const (
	simWarmup   = 1_000_000
	simDetailed = 4_000_000
	simCells    = 4
	// setupReps is how many times set-up is repeated before the window.
	// It is repeated once more per iteration inside the window, so its
	// median spans the same machine conditions as the other metrics.
	setupReps = 5
)

//go:embed digests.json
var digestsJSON []byte

// cell is one simulation input: configuration, policy and generator.
type cell struct {
	cfg  config.Config
	spec policy.Spec
	w    trace.Workload
}

// instructions is the cell's simulated instruction count, warm-up
// included.
func (c cell) instructions() uint64 {
	return c.cfg.Run.WarmupInstructions + c.cfg.Run.DetailedInstructions
}

// cellSeed derives cell i's simulation seed from the run seed.
func cellSeed(seed uint64, i int) uint64 { return seed*simCells + uint64(i) + 1 }

func buildCells(sw simWorkload, seed, warmup, detailed uint64) ([]cell, error) {
	w, err := trace.ByName(sw.workload)
	if err != nil {
		return nil, err
	}
	spec, err := policy.Parse(sw.policy)
	if err != nil {
		return nil, err
	}
	cells := make([]cell, simCells)
	for i := range cells {
		cfg := config.Default()
		cfg.Run.WarmupInstructions = warmup
		cfg.Run.DetailedInstructions = detailed
		cfg.Run.Seed = cellSeed(seed, i)
		cells[i] = cell{cfg: cfg, spec: spec, w: w}
	}
	return cells, nil
}

// simOut is one timed simulation.
type simOut struct {
	res       core.Result
	digest    string
	wall      time.Duration
	newSystem time.Duration
	allocB    uint64
	gcCycles  uint32
	events    uint64
}

// simulate builds and runs one system for c, with w as its generator
// source (c.w, or a counting wrapper of it).
func simulate(c cell, w trace.Workload) (simOut, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	sys, err := core.NewSystem(c.cfg, c.spec, w)
	if err != nil {
		return simOut{}, err
	}
	t1 := time.Now()
	res, err := sys.RunContext(context.Background())
	wall := time.Since(t0)
	if err != nil {
		return simOut{}, err
	}
	runtime.ReadMemStats(&m1)
	d, err := digest(res)
	if err != nil {
		return simOut{}, err
	}
	return simOut{
		res: res, digest: d, wall: wall, newSystem: t1.Sub(t0),
		allocB:   m1.TotalAlloc - m0.TotalAlloc,
		gcCycles: m1.NumGC - m0.NumGC,
		events:   sys.Kernel.Fired(),
	}, nil
}

// digest fingerprints every simulated statistic of a result.
func digest(r core.Result) (string, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// countingGen counts the Next calls a simulation makes.
type countingGen struct {
	g trace.Generator
	n *uint64
}

func (c countingGen) Next() trace.Op {
	*c.n++
	return c.g.Next()
}

// counted wraps w so every generator it builds adds its Next calls to
// *n. The wrapper changes no op, so results stay byte-identical.
func counted(w trace.Workload, n *uint64) trace.Workload {
	inner := w.New
	w.New = func(seed uint64) trace.Generator { return countingGen{g: inner(seed), n: n} }
	return w
}

// committedDigests returns the pinned per-cell digests for a workload
// at the default seed.
func committedDigests(workload string) ([]string, error) {
	var all map[string][]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return nil, fmt.Errorf("digests.json: %v", err)
	}
	return all[workload], nil
}

// setUp builds every cell's system once, after a garbage collection so
// each repetition starts from the same heap, and returns the cells and
// the time it took.
func (sw simWorkload) setUp(r *run) ([]cell, float64, error) {
	runtime.GC()
	t := time.Now()
	cells, err := buildCells(sw, r.seed, r.warmup, r.detailed)
	if err != nil {
		return nil, 0, err
	}
	for _, c := range cells {
		if _, err := core.NewSystem(c.cfg, c.spec, c.w); err != nil {
			return nil, 0, err
		}
	}
	return cells, time.Since(t).Seconds(), nil
}

func (sw simWorkload) run(r *run) error {
	var setups []float64
	var cells []cell
	for i := 0; i < setupReps; i++ {
		var d float64
		var err error
		if cells, d, err = sw.setUp(r); err != nil {
			return err
		}
		setups = append(setups, d)
	}

	// First pass, outside the window: lets lazy runtime set-up finish
	// and records each cell's digest.
	want := make([]string, len(cells))
	for i, c := range cells {
		r.attempted++
		out, err := simulate(c, c.w)
		if err != nil {
			r.fail("%s cell %d: %v", sw.name, i, err)
			continue
		}
		want[i] = out.digest
		r.digests = append(r.digests, out.digest)
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d cell %d digest %s\n", sw.name, r.seed, i, out.digest)
	}
	if r.seed == defaultSeed && r.warmup == simWarmup && r.detailed == simDetailed {
		pinned, err := committedDigests(sw.name)
		if err != nil {
			return err
		}
		for i := range want {
			r.attempted++
			if i >= len(pinned) || pinned[i] != want[i] {
				r.fail("%s cell %d: digest differs from digests.json", sw.name, i)
			}
		}
	}

	prof := newProfiler()
	var plain, wrapped []simOut
	start := time.Now()
	for i := 0; time.Since(start) < r.window || i < 2*simCells; i++ {
		// The traced run alternates plain simulations with profiled,
		// counted ones of the same cell, so the overhead of tracing is
		// measured side by side.
		ci, wrap := i%simCells, false
		if r.trace {
			ci, wrap = (i/2)%simCells, i%2 == 1
		}
		_, d, err := sw.setUp(r)
		if err != nil {
			return err
		}
		setups = append(setups, d)
		c := cells[ci]
		r.attempted++
		var out simOut
		if wrap {
			out, err = profiledCount(prof, c)
		} else {
			out, err = simulate(c, c.w)
		}
		if err != nil {
			r.fail("%s cell %d: %v", sw.name, ci, err)
			continue
		}
		if out.digest != want[ci] {
			r.fail("%s cell %d: re-simulation differs from the first run", sw.name, ci)
			continue
		}
		if wrap {
			wrapped = append(wrapped, out)
		} else {
			plain = append(plain, out)
		}
	}
	if len(plain) == 0 {
		return fmt.Errorf("no simulation succeeded")
	}

	if !r.trace {
		var rate, alloc, wall []float64
		for _, o := range plain {
			rate = append(rate, float64(cells[0].instructions())/1e6/o.wall.Seconds())
			alloc = append(alloc, float64(o.allocB)/1e6)
			wall = append(wall, ms(o.wall))
		}
		r.put("sim_minstr_per_s", "Minstr/s", median(rate))
		r.put("alloc_mb_per_sim", "MB", median(alloc))
		r.put("job_ms_p50", "ms", median(wall))
		r.put("setup_s", "s", median(setups))
		return nil
	}
	// The reference simulation: cell 0 through the counting wrapper,
	// whose result must match the unwrapped first run byte for byte.
	var ops uint64
	r.attempted++
	ref, err := simulate(cells[0], counted(cells[0].w, &ops))
	if err != nil {
		return err
	}
	if ref.digest != want[0] {
		r.fail("%s: counting generator wrapper changed the result", sw.name)
	}
	reportHostCosts(r, plain)
	r.put("bench.trace_overhead_pct", "%", 100*(median(walls(wrapped))/median(walls(plain))-1))
	reportService(r, serviceStats{})
	return reportLayers(r, cells[0], ref, ops, median(walls(plain)), prof.shares())
}

// profiledCount simulates c under the CPU profiler with a counting
// generator: one traced simulation.
func profiledCount(prof *profiler, c cell) (simOut, error) {
	if err := prof.start(); err != nil {
		return simOut{}, err
	}
	var n uint64
	out, err := simulate(c, counted(c.w, &n))
	if perr := prof.stop(); err == nil {
		err = perr
	}
	return out, err
}

// reportHostCosts reports what one simulation costs the host besides
// its wall time.
func reportHostCosts(r *run, plain []simOut) {
	var newSys, gcs []float64
	for _, o := range plain {
		newSys = append(newSys, ms(o.newSystem))
		gcs = append(gcs, float64(o.gcCycles))
	}
	r.put("core.new_system_ms", "ms", median(newSys))
	r.put("runtime.gc_cycles", "count", median(gcs))
}

// walls returns each simulation's wall time in seconds.
func walls(outs []simOut) []float64 {
	var s []float64
	for _, o := range outs {
		s = append(s, o.wall.Seconds())
	}
	return s
}
