package engine_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"mellow/internal/config"
	"mellow/internal/core"
	"mellow/internal/engine"
	"mellow/internal/policy"
	"mellow/internal/trace"
)

// FuzzReadSeries decodes arbitrary bytes as an epoch series. ReadSeries
// must never panic, and any series it accepts must re-encode through
// WriteSeries to bytes that decode to the same samples. Seeds are the
// encoding of a short observed run, with per-bank damage, and truncated
// and bit-flipped copies of it.
func FuzzReadSeries(f *testing.F) {
	cfg := config.Default()
	cfg.Run.WarmupInstructions = 20_000
	cfg.Run.DetailedInstructions = 60_000
	w, err := trace.ByName("gups")
	if err != nil {
		f.Fatal(err)
	}
	sys, err := core.NewSystem(cfg, policy.BEMellow().WithSC().WithWQ(), w)
	if err != nil {
		f.Fatal(err)
	}
	_, series, err := sys.RunObserved(context.Background(),
		engine.Options{Collect: true, BankDamage: true, Epoch: engine.DefaultEpoch / 64})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := engine.WriteSeries(&buf, series); err != nil {
		f.Fatal(err)
	}
	seed := buf.Bytes()
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte("null"))
	f.Add([]byte("[]"))
	for _, n := range []int{1, 2, 40, len(seed) / 2, len(seed) - 2} {
		f.Add(seed[:n])
	}
	for _, bit := range []int{0, 8*10 + 1, 8*len(seed)/3 + 5, 8 * len(seed) / 2, 8*len(seed) - 9} {
		flipped := bytes.Clone(seed)
		flipped[bit/8] ^= 1 << (bit % 8)
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		samples, err := engine.ReadSeries(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := engine.WriteSeries(&out, samples); err != nil {
			t.Fatalf("accepted series does not re-encode: %v", err)
		}
		again, err := engine.ReadSeries(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded series is rejected: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(samples, again) {
			t.Fatalf("series changes through a re-encode\nfirst:  %+v\nsecond: %+v", samples, again)
		}
	})
}
