package core

import (
	"context"
	"runtime"
	"testing"

	"mellow/internal/config"
	"mellow/internal/policy"
	"mellow/internal/trace"
)

// arenaRun simulates a builtin workload for detailed instructions after a
// short warm-up and returns the system plus the bytes the build and run
// allocated.
func arenaRun(t *testing.T, spec policy.Spec, workload string, detailed uint64) (*System, uint64) {
	t.Helper()
	cfg := config.Default()
	cfg.Run.WarmupInstructions = 500_000
	cfg.Run.DetailedInstructions = detailed
	w, err := trace.ByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sys, err := NewSystem(cfg, spec, w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return sys, after.TotalAlloc - before.TotalAlloc
}

// The request arena recycles its slots, so a run's memory follows the
// requests in flight, not its length: the peak slot count stays within
// what the queues, the banks, the LLC MSHRs and the ROB can hold, and a
// run ten times longer uses the same arena chunks.
func TestRequestArenaBoundedByRequestsInFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 135 M instructions")
	}
	cfg := config.Default()
	// Every live request is queued, on a bank, or a read the core holds:
	// in its ROB, its fetch and prefetch MSHRs, or its dependence chain.
	bound := cfg.Memory.ReadQueue + cfg.Memory.WriteQueue + cfg.Memory.EagerQueue +
		cfg.Memory.Banks() + cfg.Caches.L3.MSHRs + cfg.CPU.ROBEntries + 1
	for _, spec := range []policy.Spec{policy.BEMellow().WithSC().WithWQ(), policy.BEMellow().WithWP()} {
		for _, wl := range []string{"mcf", "GemsFDTD", "lbm"} {
			short, _ := arenaRun(t, spec, wl, 2_000_000)
			long, allocated := arenaRun(t, spec, wl, 20_000_000)
			s2, err := short.Ctl.AuditArena()
			if err != nil {
				t.Fatal(err)
			}
			s20, err := long.Ctl.AuditArena()
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s/%s: peak slots %d at 2 M, %d at 20 M; 20 M run allocated %.2f MB",
				wl, spec.Name, s2.Slots, s20.Slots, float64(allocated)/1e6)
			if s2.Slots > bound || s20.Slots > bound {
				t.Errorf("%s/%s: peak arena slots %d (2 M) / %d (20 M) exceed the in-flight bound %d",
					wl, spec.Name, s2.Slots, s20.Slots, bound)
			}
			if s2.Chunks != s20.Chunks {
				t.Errorf("%s/%s: arena chunks grew with run length: %d at 2 M, %d at 20 M",
					wl, spec.Name, s2.Chunks, s20.Chunks)
			}
			if wl == "mcf" && allocated >= 2<<20 {
				t.Errorf("%s/%s: a 20 M-instruction run allocated %.2f MB, want under 2 MB",
					wl, spec.Name, float64(allocated)/1e6)
			}
		}
	}
}
