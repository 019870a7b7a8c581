package cpu_test

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mellow/internal/config"
	"mellow/internal/core"
	"mellow/internal/policy"
	"mellow/internal/trace"
)

// countingGen counts the Next calls made on a generator, and panics on
// any call after it is closed.
type countingGen struct {
	g      trace.Generator
	calls  int
	closed atomic.Bool
}

func (c *countingGen) Next() trace.Op {
	if c.closed.Load() {
		panic("generator called after RunCancellable returned")
	}
	c.calls++
	return c.g.Next()
}

// feedWorkloads are the equivalence inputs: a Zipf hot set, dependent
// loads, a stencil stream and a replayed trace.
func feedWorkloads(t *testing.T) []trace.Workload {
	t.Helper()
	var ws []trace.Workload
	for _, name := range []string{"hmmer", "mcf", "GemsFDTD"} {
		w, err := trace.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	f, err := os.Open("../../scenarios/replay/gups-10k.trace")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := trace.FromReader("gups-10k", f, 0)
	if err != nil {
		t.Fatal(err)
	}
	return append(ws, w)
}

// newCounted builds a system over w whose generator counts its calls.
func newCounted(t *testing.T, w trace.Workload) (*core.System, *countingGen) {
	t.Helper()
	cg := &countingGen{}
	inner := w.New
	w.New = func(seed uint64) trace.Generator {
		cg.g = inner(seed)
		return cg
	}
	sys, err := core.NewSystem(config.Default(), policy.BEMellow().WithSC().WithWQ(), w)
	if err != nil {
		t.Fatal(err)
	}
	return sys, cg
}

// prefix returns the instructions covered by the first n ops of a
// fresh generator of w, and the Gap of each of them.
func prefix(w trace.Workload, n int) (sum []uint64, gaps []uint32) {
	g := w.New(config.Default().Run.Seed)
	sum = make([]uint64, n+1)
	gaps = make([]uint32, n)
	for i := 0; i < n; i++ {
		op := g.Next()
		gaps[i] = op.Gap
		sum[i+1] = sum[i] + uint64(op.Gap) + 1
	}
	return sum, gaps
}

// feedBudget is one equivalence run: one budget per phase.
type feedBudget struct {
	name   string
	phases []uint64
}

// feedBudgets returns the runs the equivalence test makes for w.
func feedBudgets(t *testing.T, w trace.Workload) []feedBudget {
	t.Helper()
	const batch = 512
	sum, gaps := prefix(w, 4*batch)
	midGap := uint64(0)
	for k := batch + 100; k < len(gaps); k++ {
		if gaps[k] >= 2 {
			midGap = sum[k] + 1 // inside op k's gap: op k is the last one drawn
			break
		}
	}
	if midGap == 0 {
		t.Fatalf("%s: no op with a gap of 2 or more", w.Name)
	}
	return []feedBudget{
		{"zero", []uint64{0}},
		{"one", []uint64{1}},
		{"under-a-batch", []uint64{sum[100]}},
		{"one-batch", []uint64{sum[batch]}},
		{"three-batches", []uint64{sum[3*batch]}},
		{"mid-gap", []uint64{midGap}},
		{"warmup+detailed", []uint64{midGap, 40_000}},
	}
}

// state renders the simulated state the equivalence tests compare.
func state(sys *core.System) string {
	return fmt.Sprintf("instrs=%d cycles=%v\nhier=%+v\nctl=%+v",
		sys.Core.Instructions(), sys.Core.Cycles(), sys.Hier.Snapshot(), sys.Ctl.Snapshot())
}

// runPhases runs each budget through RunCancellable, with the engine's
// statistics reset between phases.
func runPhases(t *testing.T, sys *core.System, budgets []uint64) {
	t.Helper()
	for i, n := range budgets {
		if i > 0 {
			sys.Hier.ResetStats()
			sys.Ctl.ResetStats()
			sys.Core.BeginMeasurement()
		}
		if !sys.Core.RunCancellable(context.Background(), n, nil) {
			t.Fatal("RunCancellable reported a cancellation nobody asked for")
		}
	}
}

// stepPhases runs the same budgets one Step at a time.
func stepPhases(sys *core.System, budgets []uint64) {
	for i, n := range budgets {
		if i > 0 {
			sys.Hier.ResetStats()
			sys.Ctl.ResetStats()
			sys.Core.BeginMeasurement()
		}
		end := sys.Core.Instructions() + n
		for sys.Core.Instructions() < end {
			sys.Core.Step()
		}
	}
}

// checkEquivalent runs budgets through RunCancellable on one system and
// a Step loop on its twin, and requires the same simulated state and
// the same number of generator calls.
func checkEquivalent(t *testing.T, w trace.Workload, budgets []uint64) {
	t.Helper()
	fed, fedGen := newCounted(t, w)
	runPhases(t, fed, budgets)
	stepped, stepGen := newCounted(t, w)
	stepPhases(stepped, budgets)
	if got, want := state(fed), state(stepped); got != want {
		t.Errorf("%s %v: batched run diverges from the Step loop\nbatched: %s\nstepped: %s", w.Name, budgets, got, want)
	}
	if fedGen.calls != stepGen.calls {
		t.Errorf("%s %v: %d Next calls batched, %d stepped", w.Name, budgets, fedGen.calls, stepGen.calls)
	}
}

// TestBatchedRunMatchesStep holds the generator feed to the one-op-at-a-
// time path: same state, same Next calls, for budgets that end before,
// on and between batch boundaries, and across two phases.
func TestBatchedRunMatchesStep(t *testing.T) {
	for _, w := range feedWorkloads(t) {
		for _, b := range feedBudgets(t, w) {
			t.Run(w.Name+"/"+b.name, func(t *testing.T) {
				checkEquivalent(t, w, b.phases)
			})
		}
	}
}

// TestBatchedRunSingleProc runs the feed with one P, where producer and
// core must take turns on the same thread.
func TestBatchedRunSingleProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	w, err := trace.ByName("hmmer")
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, w, []uint64{30_000, 60_000})
	checkCancel(t, w, 3)
}

// waitGoroutines waits for the goroutine count to fall back to want.
// A producer's last act is to send the nil that ends its phase, so it
// may still be counted for a moment after RunCancellable returns.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after RunCancellable returned, want %d", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
	}
}

// checkCancel cancels a run at its k-th checkpoint and requires the
// call to report it, the producer to be gone, the generator to be left
// alone from then on, and the core to stand where a Step loop stands
// after the ops consumed before that checkpoint.
func checkCancel(t *testing.T, w trace.Workload, k int) {
	t.Helper()
	sys, cg := newCounted(t, w)
	polls := 0
	cancelled := func() bool {
		polls++
		return polls == k
	}
	base := runtime.NumGoroutine()
	if sys.Core.RunCancellable(context.Background(), 10_000_000, cancelled) {
		t.Fatalf("%s: cancelled at checkpoint %d, but RunCancellable returned true", w.Name, k)
	}
	cg.closed.Store(true)
	waitGoroutines(t, base)
	if polls != k {
		t.Errorf("%s: %d polls, want %d", w.Name, polls, k)
	}
	// Checkpoints fall every 1024 ops: the k-th is polled before op
	// 1024(k-1)+1 is consumed.
	twin, _ := newCounted(t, w)
	for i := 0; i < 1024*(k-1); i++ {
		twin.Core.Step()
	}
	if got, want := state(sys), state(twin); got != want {
		t.Errorf("%s: cancelled at checkpoint %d\nbatched: %s\nstepped: %s", w.Name, k, got, want)
	}
}

// TestCancelStopsProducer cancels at the first and at later
// checkpoints, then runs a whole phase on the recycled batch buffers.
func TestCancelStopsProducer(t *testing.T) {
	ws := feedWorkloads(t)
	for _, k := range []int{1, 2, 7} {
		for _, w := range ws {
			checkCancel(t, w, k)
		}
	}
	checkEquivalent(t, ws[0], []uint64{100_000})
}

// TestPhaseEndingPastMaxUint64 runs a phase whose end, counted from the
// instructions already run, lies past 2^64. The producer alone decides
// where a phase ends, so the core runs until it is cancelled and both
// sides stop, where a core that computed its own end would see it wrap.
func TestPhaseEndingPastMaxUint64(t *testing.T) {
	w, err := trace.ByName("hmmer")
	if err != nil {
		t.Fatal(err)
	}
	const warmup, k = 5_000, 3
	sys, cg := newCounted(t, w)
	base := runtime.NumGoroutine()
	if !sys.Core.RunCancellable(context.Background(), warmup, nil) {
		t.Fatal("warm-up reported a cancellation nobody asked for")
	}
	polls := 0
	cancelled := func() bool {
		polls++
		return polls == k
	}
	ret := make(chan bool, 1)
	go func() { ret <- sys.Core.RunCancellable(context.Background(), math.MaxUint64-warmup/2, cancelled) }()
	select {
	case ok := <-ret:
		if ok {
			t.Fatalf("cancelled at checkpoint %d, but RunCancellable returned true", k)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunCancellable did not return within 30 s")
	}
	cg.closed.Store(true)
	waitGoroutines(t, base)
	twin, _ := newCounted(t, w)
	stepPhases(twin, []uint64{warmup})
	for i := 0; i < 1024*(k-1); i++ {
		twin.Core.Step()
	}
	if got, want := state(sys), state(twin); got != want {
		t.Errorf("cancelled at checkpoint %d\nbatched: %s\nstepped: %s", k, got, want)
	}
}
