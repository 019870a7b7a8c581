package main

import "testing"

func snap(ns, allocs, bytes float64) Snapshot {
	return Snapshot{Benchmarks: map[string]Bench{
		"BenchmarkX": {NsPerOp: ns, Units: map[string]float64{"allocs/op": allocs, "B/op": bytes}},
	}}
}

// diff holds B/op to the allocs/op threshold on rows of at least
// minGatedBytes, and leaves the tiny rows (amortised framework noise)
// ungated.
func TestDiffGatesBytesPerOp(t *testing.T) {
	cases := []struct {
		name       string
		base, cur  Snapshot
		regression bool
	}{
		{"unchanged", snap(100, 222, 5_069_000), snap(100, 222, 5_069_000), false},
		{"fewer bytes", snap(100, 222, 5_069_000), snap(100, 142, 760_000), false},
		{"bytes grow, counts flat", snap(100, 222, 5_069_000), snap(100, 222, 6_000_000), true},
		{"bytes within threshold", snap(100, 222, 5_069_000), snap(100, 222, 5_500_000), false},
		{"tiny row ungated", snap(100, 0, 2), snap(100, 0, 40), false},
		{"allocs grow", snap(100, 222, 5_069_000), snap(100, 300, 5_069_000), true},
	}
	for _, c := range cases {
		if got := diff(c.base, c.cur, 0.10, 0.60); got != c.regression {
			t.Errorf("%s: regression = %v, want %v", c.name, got, c.regression)
		}
	}
}
