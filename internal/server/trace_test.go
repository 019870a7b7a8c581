package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"mellow/internal/experiments"
)

// chromeTrace mirrors the slice of the Chrome Trace Event Format the
// tests assert on.
type chromeTrace struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	OtherData       struct {
		TraceID string `json:"trace_id"`
	} `json:"otherData"`
	TraceEvents []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		PID  int     `json:"pid"`
		TID  int     `json:"tid"`
		Args struct {
			Name string `json:"name"`
		} `json:"args"`
	} `json:"traceEvents"`
}

func getTrace(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestJobTraceEndpoint submits traced jobs — a sim job and a scenario
// whose cells differ only by leveler — and fetches their traces: each
// payload must be valid Chrome Trace Event Format with service spans
// and one simulation timeline per cell, and each job result must be
// byte-for-byte what its untraced twin produces.
func TestJobTraceEndpoint(t *testing.T) {
	experiments.ResetCache()
	_, ts := newTestServer(t, Config{Workers: 2, BaseConfig: tinyBase(17)})

	for _, tc := range []struct {
		name, plain, traced, span, process string
		cells                              int
	}{
		{"sim", `{"kind":"sim","workload":"gups","policy":"BE-Mellow+SC+WQ"}`,
			`{"kind":"sim","workload":"gups","policy":"BE-Mellow+SC+WQ","trace":true}`,
			"sim gups/BE-Mellow+SC+WQ", "sim gups/BE-Mellow+SC+WQ startgap", 1},
		{"scenario", observedScenario(""), observedScenario(`,"trace":true`),
			"sim stream/BE-Mellow+SC softwear", "sim stream/BE-Mellow+SC softwear", 4},
	} {
		plain, code := postJob(t, ts, tc.plain)
		if code != http.StatusAccepted {
			t.Fatalf("%s: untraced submit = %d", tc.name, code)
		}
		plainDone := waitDone(t, ts, plain.ID)
		if plainDone.State != StateDone {
			t.Fatalf("%s: untraced state = %s (%s)", tc.name, plainDone.State, plainDone.Error)
		}

		traced, code := postJob(t, ts, tc.traced)
		if code != http.StatusAccepted {
			t.Fatalf("%s: traced submit = %d", tc.name, code)
		}
		if traced.Key == plain.Key {
			t.Errorf("%s: trace flag did not enter the job content address", tc.name)
		}
		tracedDone := waitDone(t, ts, traced.ID)
		if tracedDone.State != StateDone {
			t.Fatalf("%s: traced state = %s (%s)", tc.name, tracedDone.State, tracedDone.Error)
		}
		// The determinism contract across the API: tracing changes the
		// key (a separate cache entry) but not one byte of the simulation
		// output.
		for _, r := range []*JobResult{plainDone.Result, tracedDone.Result} {
			r.Key = ""
		}
		if a, b := mustJSON(t, plainDone.Result), mustJSON(t, tracedDone.Result); a != b {
			t.Errorf("%s: traced job result differs from untraced twin:\n%s\nvs\n%s", tc.name, b, a)
		}

		resp, body := getTrace(t, ts.URL+"/v1/jobs/"+traced.ID+"/trace")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: trace fetch = %d: %s", tc.name, resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: content type = %q", tc.name, ct)
		}
		var doc chromeTrace
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("%s: trace is not valid JSON: %v", tc.name, err)
		}
		if doc.DisplayTimeUnit != "ns" || len(doc.OtherData.TraceID) != 16 {
			t.Fatalf("%s: bad trace header: unit %q, id %q", tc.name, doc.DisplayTimeUnit, doc.OtherData.TraceID)
		}
		spanNames, phaseKinds, timelines := map[string]bool{}, map[string]int{}, 0
		processes := map[string]bool{}
		for _, e := range doc.TraceEvents {
			phaseKinds[e.Ph]++
			if e.Ph == "b" {
				spanNames[e.Name] = true
			}
			if e.Ph == "M" && e.Name == "process_name" && strings.HasPrefix(e.Args.Name, "sim ") {
				timelines++
				processes[e.Args.Name] = true
			}
		}
		if !spanNames["queued"] || !spanNames[tc.span] {
			t.Errorf("%s: service spans missing: %v", tc.name, spanNames)
		}
		if phaseKinds["X"] == 0 {
			t.Errorf("%s: no simulation slices in trace", tc.name)
		}
		if timelines != tc.cells {
			t.Errorf("%s: trace has %d simulation timelines, want one per cell (%d)", tc.name, timelines, tc.cells)
		}
		// Timeline names carry the leveler, so cells that differ only by
		// leveler stay distinguishable.
		if len(processes) != tc.cells || !processes[tc.process] {
			t.Errorf("%s: simulation process names %v, want %d distinct including %q",
				tc.name, processes, tc.cells, tc.process)
		}

		// The untraced job has no trace artifact.
		resp, body = getTrace(t, ts.URL+"/v1/jobs/"+plain.ID+"/trace")
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: untraced job trace fetch = %d: %s", tc.name, resp.StatusCode, body)
		}
	}
	// Unknown job ids 404.
	if resp, _ := getTrace(t, ts.URL+"/v1/jobs/nope/trace"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job trace fetch = %d", resp.StatusCode)
	}
}

// mustJSON renders v as JSON text.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestJobTraceConflictWhileRunning verifies the endpoint refuses to
// serve a trace before the job finishes.
func TestJobTraceConflictWhileRunning(t *testing.T) {
	experiments.ResetCache()
	base := tinyBase(19)
	base.Run.DetailedInstructions = 50_000_000 // seconds of work
	s, ts := newTestServer(t, Config{Workers: 1, BaseConfig: base})

	st, code := postJob(t, ts, `{"kind":"sim","workload":"stream","policy":"Norm","trace":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	resp, body := getTrace(t, ts.URL+"/v1/jobs/"+st.ID+"/trace")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("trace fetch while running = %d: %s", resp.StatusCode, body)
	}
	// Hard-stop cancels the in-flight simulation; the job fails but its
	// service spans are still servable.
	stopCtx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(stopCtx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown err = %v, want DeadlineExceeded", err)
	}
	final := waitDone(t, ts, st.ID)
	if final.State != StateFailed {
		t.Fatalf("state after hard stop = %s", final.State)
	}
	resp, body = getTrace(t, ts.URL+"/v1/jobs/"+st.ID+"/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch after failure = %d: %s", resp.StatusCode, body)
	}
	var doc chromeTrace
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("failed-job trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("failed traced job exported no events (queued span expected)")
	}
}
