package cpu_test

import (
	"context"
	"testing"

	"mellow/internal/config"
	"mellow/internal/core"
	"mellow/internal/policy"
	"mellow/internal/trace"
)

// Every request is freed exactly once: after a whole run and a final
// drain, no slot is on the controller's free list twice, and the live
// slots are exactly the reads the core still holds, with one holder
// count per reference the core keeps. Writes and eager writes belong to
// the controller and are all freed once the drain completes.
func TestRequestHoldersBalanceAfterRun(t *testing.T) {
	cfg := config.Default()
	cfg.Run.WarmupInstructions = 100_000
	cfg.Run.DetailedInstructions = 400_000
	specs := []policy.Spec{
		policy.Norm(),
		policy.BEMellow().WithSC().WithWQ(),
		policy.BEMellow().WithWP(),
		policy.BMellow().WithNC().WithSC(),
	}
	for _, spec := range specs {
		for _, wl := range []string{"mcf", "lbm", "GemsFDTD", "stream"} {
			w, err := trace.ByName(wl)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := core.NewSystem(cfg, spec, w)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.RunContext(context.Background()); err != nil {
				t.Fatal(err)
			}
			sys.Ctl.Drain()
			s, err := sys.Ctl.AuditArena()
			if err != nil {
				t.Fatalf("%s/%s: %v", wl, spec.Name, err)
			}
			distinct, refs := sys.Core.HeldRequests()
			if s.Live != distinct || s.Holders != refs {
				t.Errorf("%s/%s: %d live slots with %d holders, but the core holds %d requests by %d references",
					wl, spec.Name, s.Live, s.Holders, distinct, refs)
			}
		}
	}
}
