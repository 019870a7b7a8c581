package server

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"mellow/internal/experiments"
	"mellow/internal/policy"
	"mellow/internal/sched"
	"mellow/internal/trace"
)

// TestExperimentJobProgress: an experiment job's progress counts every
// cell of its whole plan, not one sweep at a time. fig18 runs three
// bank counts × two policies; with five cells memoised and the sixth
// held on the scheduler, the job must report 5/6 — not a per-sweep
// fraction, which read 1 after the first bank count and 1/2 here.
func TestExperimentJobProgress(t *testing.T) {
	experiments.ResetCache()
	base := tinyBase(83)
	_, ts := newTestServer(t, Config{Workers: 1, SimBudget: 1, BaseConfig: base})

	w, err := trace.ByName("GemsFDTD")
	if err != nil {
		t.Fatal(err)
	}
	for _, banks := range []int{16, 8, 4} {
		cfg, err := base.WithBanks(banks)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []policy.Spec{policy.Norm(), policy.BEMellow().WithSC()} {
			if banks == 4 && p.Name != "Norm" {
				continue // the last cell: left to simulate under the job
			}
			if _, err := experiments.Run(context.Background(), experiments.Cell{Cfg: cfg, Policy: p, Workload: w}, experiments.Observation{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Hold the only scheduler slot so the sixth cell cannot start. The
	// cleanup releases it before the server shuts down.
	release, err := sched.Default().Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(release)

	st, code := postJob(t, ts, `{"kind":"experiment","experiment":"fig18"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	status := func() JobStatus {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var s JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
			t.Fatal(err)
		}
		return s
	}
	// Once the sixth cell waits for the slot, the other five have been
	// attempted or soon will be: progress must settle at exactly 5/6.
	deadline := time.Now().Add(10 * time.Second)
	for sched.Default().Stats().Waiters == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the sixth cell never queued for the scheduler")
		}
		time.Sleep(time.Millisecond)
	}
	var s JobStatus
	for deadline = time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		if s = status(); math.Abs(s.Progress-5.0/6) < 1e-9 {
			break
		}
	}
	if s.State != StateRunning || math.Abs(s.Progress-5.0/6) >= 1e-9 {
		t.Fatalf("with the sixth cell held: state %s, progress %v; want running at 5/6", s.State, s.Progress)
	}
	release()
	if fin := waitDone(t, ts, st.ID); fin.State != StateDone || fin.Progress != 1 {
		t.Fatalf("finished job: state %s (%s), progress %v", fin.State, fin.Error, fin.Progress)
	}
}

// TestExperimentJobObserved: an observed, traced experiment job hands
// over each cell of its plan once. fig11 renders the evaluation sweep
// twice (table and log bars) but simulates it once: one series, one
// metrics snapshot and one timeline per cell, the series in cell order,
// and every streamed epoch labelled with its cell index and equal to
// that cell's series.
func TestExperimentJobObserved(t *testing.T) {
	experiments.ResetCache()
	_, ts := newTestServer(t, Config{Workers: 2, BaseConfig: tinyBase(89)})
	st, code := postJob(t, ts, `{"kind":"experiment","experiment":"fig11","workloads":["stream"],
		"interval_ns":20000,"trace":true,"metrics":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	events := readEvents(t, ts, st.ID)
	fin := waitDone(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("state = %s (%s)", fin.State, fin.Error)
	}
	specs := policy.EvaluationSet()
	series := fin.Result.Report.Series
	if len(series) != len(specs) {
		t.Fatalf("report carries %d series, want one per cell (%d)", len(series), len(specs))
	}
	if len(fin.Result.Metrics) != len(specs) {
		t.Errorf("result carries %d metrics snapshots, want one per cell (%d)", len(fin.Result.Metrics), len(specs))
	}
	streamed := make([][]string, len(specs))
	for _, ev := range events {
		if ev.Type != EventEpoch {
			continue
		}
		if ev.Cell < 0 || ev.Cell >= len(specs) {
			t.Fatalf("epoch event carries cell %d, want 0..%d", ev.Cell, len(specs)-1)
		}
		streamed[ev.Cell] = append(streamed[ev.Cell], mustJSON(t, ev.Sample))
	}
	for i, rec := range series {
		if rec.Workload != "stream" || rec.Policy != specs[i].Name || len(rec.Series) == 0 {
			t.Errorf("series %d = %s/%s (%d samples), want stream/%s", i, rec.Workload, rec.Policy, len(rec.Series), specs[i].Name)
		}
		var want []string
		for _, s := range rec.Series {
			want = append(want, mustJSON(t, &s))
		}
		if !sameLines(streamed[i], want) {
			t.Errorf("cell %d: streamed %d epochs that differ from its %d-sample series", i, len(streamed[i]), len(want))
		}
	}

	resp, body := getTrace(t, ts.URL+"/v1/jobs/"+st.ID+"/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch = %d: %s", resp.StatusCode, body)
	}
	var doc chromeTrace
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	timelines := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" && strings.HasPrefix(e.Args.Name, "sim ") {
			timelines++
		}
	}
	if timelines != len(specs) {
		t.Errorf("trace has %d simulation timelines, want one per cell (%d)", timelines, len(specs))
	}
}
