package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"mellow/internal/trace"
)

// The benchmark runs from the repository root, where scenarios/ and
// BENCHMARK.json live.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// Tiny simulation lengths keep the contract test to seconds per run.
const tinyWarmup, tinyDetailed = 20_000, 80_000

type declared struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func tinyRun(t *testing.T, workload string, seed uint64, traced bool) *run {
	t.Helper()
	r := newRun(seed, time.Millisecond, traced)
	r.warmup, r.detailed = tinyWarmup, tinyDetailed
	if err := workloads[workload](r); err != nil {
		t.Fatalf("%s seed %d traced %v: %v", workload, seed, traced, err)
	}
	if rep := r.report(); !rep.Correct || rep.Attempted < 1 {
		t.Fatalf("%s seed %d traced %v: correct %v, %d of %d failed",
			workload, seed, traced, rep.Correct, rep.Failed, rep.Attempted)
	}
	return r
}

// units returns a run's metric names with their units.
func units(r *run) map[string]string {
	out := map[string]string{}
	for name, m := range r.metrics {
		out[name] = m.Unit
	}
	return out
}

// TestContract runs every declared workload at a tiny length, untraced
// and traced, on two seeds: each run must emit exactly the declared
// metrics with their units, end-to-end metrics must be positive, and
// the second seed must change the simulated results but not the metric
// set.
func TestContract(t *testing.T) {
	d := loadDeclared(t)
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for name := range workloads {
		have = append(have, name)
	}
	sort.Strings(names)
	sort.Strings(have)
	if !reflect.DeepEqual(names, have) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, have)
	}
	for _, traced := range []bool{false, true} {
		want := map[string]string{}
		list := d.EndToEnd
		if traced {
			list = d.PerLayer
		}
		for _, m := range list {
			want[m.Name] = m.Unit
		}
		for _, name := range names {
			a := tinyRun(t, name, 2, traced)
			b := tinyRun(t, name, 3, traced)
			for _, r := range []*run{a, b} {
				if got := units(r); !reflect.DeepEqual(got, want) {
					t.Errorf("%s traced %v: metrics %v, want %v", name, traced, got, want)
				}
				if !traced {
					for n, m := range r.metrics {
						if m.Value <= 0 {
							t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, n, m.Value)
						}
					}
				}
			}
			if len(a.digests) == 0 || reflect.DeepEqual(a.digests, b.digests) {
				t.Errorf("%s traced %v: seeds 2 and 3 gave the same results %v", name, traced, a.digests)
			}
		}
	}
}

// TestTracedRunIsEquivalent: the counting generator wrapper leaves the
// result byte-identical, and the standalone replays share no state with
// a simulation, nor with each other across repetitions.
func TestTracedRunIsEquivalent(t *testing.T) {
	cells, err := buildCells(simWorkloads["pointer-chase"], 5, tinyWarmup, tinyDetailed)
	if err != nil {
		t.Fatal(err)
	}
	c := cells[0]
	plain, err := simulate(c, c.w)
	if err != nil {
		t.Fatal(err)
	}
	var ops uint64
	counted, err := simulate(c, counted(c.w, &ops))
	if err != nil {
		t.Fatal(err)
	}
	if counted.digest != plain.digest {
		t.Fatal("counting wrapper changed the simulated result")
	}
	if ops == 0 {
		t.Fatal("counting wrapper saw no Next calls")
	}

	replay := func() (cacheReplay, uint64) {
		g := c.w.New(c.cfg.Run.Seed)
		stream := make([]trace.Op, ops)
		for i := range stream {
			stream[i] = g.Next()
		}
		cr := replayCache(c, stream, 1000)
		_, _, fired := replayMem(c, cr, 1000)
		if _, err := replayWear(c, cr.items); err != nil {
			t.Fatal(err)
		}
		return cr, fired
	}
	cr1, fired1 := replay()
	again, err := simulate(c, c.w)
	if err != nil {
		t.Fatal(err)
	}
	if again.digest != plain.digest {
		t.Fatal("a simulation after the replays differs from one before them")
	}
	cr2, fired2 := replay()
	if !reflect.DeepEqual(cr1.items, cr2.items) || !reflect.DeepEqual(cr1.eager, cr2.eager) || fired1 != fired2 {
		t.Fatal("replays differ between repetitions: they share state")
	}
	if len(cr1.items) == 0 || fired1 == 0 {
		t.Fatalf("replay produced no memory traffic (%d requests, %d events)", len(cr1.items), fired1)
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"mellow/internal/cache.(*Cache).find":     "cache",
		"mellow/internal/sim.(*Kernel).step":      "sim",
		"mellow/internal/joblog.(*Log).Append":    "other",
		"runtime.mallocgc":                        "runtime",
		"internal/runtime/maps.(*Map).getWithKey": "runtime",
		"math.Pow":      "other",
		"main.simulate": "other",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestProfilerShares profiles a generator loop and checks that the
// decoded shares sum to 100% and charge the simulator's part of it to
// the trace and rng packages only.
func TestProfilerShares(t *testing.T) {
	w, err := trace.ByName("hmmer")
	if err != nil {
		t.Fatal(err)
	}
	p := newProfiler()
	if err := p.start(); err != nil {
		t.Fatal(err)
	}
	g := w.New(1)
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			sinkOp = g.Next()
		}
	}
	if err := p.stop(); err != nil {
		t.Fatal(err)
	}
	if p.total == 0 {
		t.Skip("no profile samples collected")
	}
	sh := p.shares()
	sum := 0.0
	for name, v := range sh {
		sum += v
		if v > 0 && name != "trace" && name != "rng" && name != "runtime" && name != "other" {
			t.Errorf("generator loop charged %v%% to %s", v, name)
		}
	}
	if sum < 99.9 || sum > 100.1 {
		t.Errorf("shares sum to %v%%", sum)
	}
	if sh["trace"]+sh["rng"] == 0 {
		t.Errorf("generator loop charged nothing to trace or rng: %v", sh)
	}
}
