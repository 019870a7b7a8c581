package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"mellow/internal/config"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden")

// goldenConfig is the short configuration every artifact golden is
// rendered at: a 256 KB LLC so the short run still misses, 30 k warm-up
// and 60 k detailed instructions, seed 1.
func goldenConfig() config.Config {
	cfg := config.Default()
	cfg.Run.Seed = 1
	cfg.Caches.L3.SizeBytes = 262144
	cfg.Run.WarmupInstructions = 30_000
	cfg.Run.DetailedInstructions = 60_000
	return cfg
}

// TestArtifactGolden pins the rendered text of every paper artifact at
// the short golden configuration over stream and gups, so a change to
// how an artifact plans, runs or renders its simulations cannot move
// one byte unnoticed.
// Regenerate with: go test ./internal/experiments -run Golden -update
func TestArtifactGolden(t *testing.T) {
	ResetCache()
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) { checkGolden(t, e, goldenConfig(), e.ID+".golden") })
	}
}

// TestSweepGolden pins the artifacts that sweep a configuration axis —
// ExpoFactor, bank count, eager predictor, ablated parameters, device
// and leveler — at 400 k + 400 k instructions, where write-backs reach
// memory. At the short golden configuration most of their rows read
// alike, so a renderer that paired a row with the wrong sweep point
// would still match.
func TestSweepGolden(t *testing.T) {
	ResetCache()
	cfg := goldenConfig()
	cfg.Run.WarmupInstructions, cfg.Run.DetailedInstructions = 400_000, 400_000
	for _, id := range []string{"fig17", "fig18", "ext2", "ext3", "ext7", "ext8"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(id, func(t *testing.T) { checkGolden(t, e, cfg, id+".sweep.golden") })
	}
}

// checkGolden renders e at cfg over stream and gups and compares the
// text with testdata/name, rewriting the file first under -update.
func checkGolden(t *testing.T, e Experiment, cfg config.Config, name string) {
	t.Helper()
	var buf bytes.Buffer
	o := Options{Cfg: cfg, Out: &buf, Workloads: []string{"stream", "gups"}}
	if err := e.Run(o, CellHooks{}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("%s drifted from %s:\ngot:\n%s\nwant:\n%s", e.ID, path, buf.Bytes(), want)
	}
}
