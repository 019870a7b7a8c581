package server

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"mellow/internal/config"
)

// FuzzJobRequestNormalize decodes arbitrary bytes as strictly as the
// submit handler does and checks the content-addressing invariants of
// every request that normalizes: normalize never panics and leaves its
// request untouched; a request rebuilt from the canonical job
// normalizes to the same canonical job and key; and the key does not
// depend on the order of the workloads or policies. Seeds are the
// request bodies of scripts/e2e_smoke.sh and scripts/e2e_scenario.sh
// plus an observed scenario request.
func FuzzJobRequestNormalize(f *testing.F) {
	for _, body := range []string{
		// e2e_smoke.sh: the observed, traced compare matrix.
		`{"kind":"compare","workloads":["gups","stream"],"policies":["Norm","BE-Mellow+SC"],"interval_ns":20000,"seed":7,"warmup":0,"detailed":3000000,"trace":true}`,
		// e2e_smoke.sh: a sub-floor interval (rejected).
		`{"kind":"sim","workload":"stream","policy":"Norm","interval_ns":1}`,
		// e2e_smoke.sh: the two batch entries.
		`{"kind":"sim","workload":"stream","policy":"Norm","seed":7,"warmup":0,"detailed":100000}`,
		`{"kind":"sim","workload":"gups","policy":"Norm","seed":7,"warmup":0,"detailed":100000}`,
		// e2e_smoke.sh: the scenario document, with observers and with a
		// request-level policy (rejected).
		`{"kind":"scenario","scenario":{"name":"e2e-smoke","workloads":[{"name":"gups"}],"policies":["Norm","BE-Mellow+SC"],"overrides":{"seed":7,"llc_bytes":262144,"warmup_instructions":100000,"detailed_instructions":200000}}}`,
		`{"kind":"scenario","scenario":{"name":"e2e-smoke","workloads":[{"name":"gups"}],"policies":["Norm","BE-Mellow+SC"],"overrides":{"seed":7,"llc_bytes":262144,"warmup_instructions":100000,"detailed_instructions":200000}}, "interval_ns": 500000, "trace": true}`,
		`{"kind":"scenario","scenario":{"name":"e2e-smoke","workloads":[{"name":"gups"}],"policies":["Norm","BE-Mellow+SC"]}, "policy": "Norm"}`,
		// A scenario with every observer, across levelers.
		observedScenario(`,"interval_ns":40000,"trace":true,"metrics":true`),
		// Compare defaults and duplicates, an experiment, a leveler.
		`{"kind":"compare","workload":"lbm","workloads":["lbm","mcf"],"leveler":"softwear","metrics":true}`,
		`{"kind":"experiment","experiment":"fig3","workloads":["stream","gups"]}`,
	} {
		f.Add([]byte(body))
	}
	// e2e_scenario.sh: a corpus document wrapped in a job request.
	doc, err := os.ReadFile(filepath.Join("..", "..", "scenarios", "sensitivity", "test-banks-4.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(`{"kind":"scenario","scenario":` + string(doc) + `}`))

	base := config.Default()
	f.Fuzz(func(t *testing.T, b []byte) {
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		var req JobRequest
		if dec.Decode(&req) != nil {
			return
		}
		before := mustJSON(t, req)
		c, key, err := normalize(req, base)
		if after := mustJSON(t, req); after != before {
			t.Fatalf("normalize modified its request:\n%s\n%s", before, after)
		}
		if err != nil {
			return
		}

		// Rebuilt from the canonical job: same job, same key.
		re := JobRequest{Kind: c.Kind, Config: &c.Config, Experiment: c.Experiment,
			Scenario: c.Scenario, IntervalNS: c.IntervalNS, Metrics: c.Metrics, Trace: c.Trace}
		switch c.Kind {
		case KindSim:
			re.Workload, re.Policy = c.Workloads[0], c.Policies[0]
		case KindCompare, KindExperiment:
			re.Workloads, re.Policies = slices.Clone(c.Workloads), slices.Clone(c.Policies)
		}
		c2, key2, err := normalize(re, base)
		if err != nil {
			t.Fatalf("canonical job does not normalize: %v\n%s", err, mustJSON(t, re))
		}
		if key2 != key || !reflect.DeepEqual(c2, c) {
			t.Fatalf("re-normalizing the canonical job moved it:\n%s\n%s", mustJSON(t, c), mustJSON(t, c2))
		}

		// Reversed lists: same key.
		rev := req
		rev.Workloads, rev.Policies = slices.Clone(req.Workloads), slices.Clone(req.Policies)
		slices.Reverse(rev.Workloads)
		slices.Reverse(rev.Policies)
		if _, key3, err := normalize(rev, base); err != nil || key3 != key {
			t.Fatalf("reordering workloads and policies changed the key (%v): %s vs %s", err, key, key3)
		}
	})
}
