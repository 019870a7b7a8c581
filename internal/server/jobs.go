package server

import (
	"bytes"
	"context"
	"math"
	"sync/atomic"
	"time"

	"mellow/internal/core"
	"mellow/internal/engine"
	"mellow/internal/experiments"
	"mellow/internal/metrics"
	"mellow/internal/scenario"
	"mellow/internal/sim"
	"mellow/internal/xtrace"
)

// jobState is one submitted job's lifecycle record. Mutable fields are
// guarded by the owning Server's mutex; done closes on completion. The
// progress tracker is lock-free so the status handler can read it while
// the job runs.
type jobState struct {
	id    string
	key   string
	canon canonicalJob
	// timeout caps execution; zero means the server default.
	timeout time.Duration

	state      string
	err        string
	result     *JobResult
	queuedAt   time.Time
	startedAt  time.Time
	finishedAt time.Time
	done       chan struct{}

	progress jobProgress

	// stream is the job's bounded broadcast log behind
	// GET /v1/jobs/{id}/events. Minted at admission; nil only for
	// jobStates tests build by hand (every streamLog method is
	// nil-safe).
	stream *streamLog

	// spans is the wall-clock span recorder, minted at admission for
	// jobs submitted with "trace": true (nil otherwise; every recording
	// call is nil-safe).
	spans *xtrace.SpanRecorder
	// traces collects each simulation's execution timeline. runJob
	// fills it once the simulations finish; readers wait for done to
	// close.
	traces []*xtrace.SimTrace
}

// jobProgress is a job's live completion state: simulations attempted
// out of the job's total, plus the live trackers of every simulation
// the job is running in parallel. Workers write concurrently; status
// readers see a monotone non-decreasing fraction through the maxSeen
// clamp (tracker handoffs between simulations could otherwise read a
// hair backwards). Failed and cancelled simulations count as attempted
// too, so a failed job's fraction accounts for all work the job tried
// rather than freezing at an arbitrary value.
type jobProgress struct {
	totalSims atomic.Uint64
	doneSims  atomic.Uint64
	active    engine.TrackerSet
	last      atomic.Pointer[engine.EpochSample]
	maxSeen   atomic.Uint64 // float64 bits
}

func (p *jobProgress) setTotal(n int) {
	if n > 0 {
		p.totalSims.Store(uint64(n))
	}
}

// beginSim registers a starting simulation's tracker (nil for
// unobserved runs, which contribute progress only on completion).
// Several simulations may be live at once — the job matrix runs in
// parallel under the process-wide scheduler.
func (p *jobProgress) beginSim(tr *engine.Tracker) { p.active.Add(tr) }

// endSim retires one simulation: its freshest epoch sample is kept for
// the status, its tracker leaves the active set, and the attempted
// count advances — on success, failure and cancellation alike.
func (p *jobProgress) endSim(tr *engine.Tracker) {
	if tr != nil {
		if s := tr.Sample(); s != nil {
			p.keepLast(s)
		}
		p.active.Remove(tr)
	}
	p.doneSims.Add(1)
}

// keepLast retains the freshest (greatest end tick) retired sample;
// parallel simulations retire in any order.
func (p *jobProgress) keepLast(s *engine.EpochSample) {
	for {
		old := p.last.Load()
		if old != nil && old.End >= s.End {
			return
		}
		if p.last.CompareAndSwap(old, s) {
			return
		}
	}
}

// finish pins the fraction at 1 (job completed successfully).
func (p *jobProgress) finish() { p.clamp(1) }

// clamp publishes f through the monotone max filter and returns the
// published (never-decreasing) value.
func (p *jobProgress) clamp(f float64) float64 {
	if f < 0 || math.IsNaN(f) {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	for {
		old := p.maxSeen.Load()
		if math.Float64frombits(old) >= f {
			return math.Float64frombits(old)
		}
		if p.maxSeen.CompareAndSwap(old, math.Float64bits(f)) {
			return f
		}
	}
}

// fraction returns the job's completion in [0, 1], monotone across
// calls: attempted simulations plus the summed fractions of every
// simulation currently in flight, over the job's total.
func (p *jobProgress) fraction() float64 {
	total := p.totalSims.Load()
	if total == 0 {
		return p.clamp(0)
	}
	f := float64(p.doneSims.Load()) + p.active.SumProgress()
	return p.clamp(f / float64(total))
}

// sample returns the freshest epoch sample: the furthest-along running
// simulation's, or the last one a finished simulation left behind.
func (p *jobProgress) sample() *engine.EpochSample {
	if s := p.active.Freshest(); s != nil {
		return s
	}
	return p.last.Load()
}

// status renders the job for the API. Callers hold the server mutex;
// the progress fields are read through their own atomics.
func (j *jobState) status(deduped bool) JobStatus {
	st := JobStatus{
		ID:       j.id,
		Key:      j.key,
		State:    j.state,
		Deduped:  deduped,
		Error:    j.err,
		Progress: j.progress.fraction(),
		Epoch:    j.progress.sample(),
		QueuedAt: j.queuedAt,
	}
	if !j.startedAt.IsZero() {
		t := j.startedAt
		st.StartedAt = &t
	}
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		st.FinishedAt = &t
		st.ElapsedMS = j.finishedAt.Sub(j.startedAt).Milliseconds()
	}
	if j.state == StateDone {
		st.Result = j.result
	}
	return st
}

// runJob executes one job's simulations through the memoised harness,
// so identical sub-simulations across different jobs run once. Every
// job kind runs its scenarios through runMatrix: a scenario job its
// document, an experiment job its artifact's plan, which the artifact
// then renders.
//
// A sim or compare job becomes, at run time, the scenario named after
// its kind whose builtin workloads and policies are the canonical job's
// sorted lists, with no levelers and no overrides. Its cells are then
// the canonical (workload, policy) loop order, each cell's simulation
// is the one the job always ran, and Results[i] is cell i's result.
func runJob(ctx context.Context, js *jobState) (*JobResult, error) {
	canon := js.canon
	out := &JobResult{Key: js.key, Kind: canon.Kind}
	if canon.Kind == KindExperiment {
		e, err := experiments.ByID(canon.Experiment)
		if err != nil {
			return nil, err
		}
		res, err := runMatrix(ctx, js, e.Plan(canon.Config, canon.Workloads), out)
		if err != nil {
			return nil, err
		}
		renderStart := time.Now()
		var buf bytes.Buffer
		o := experiments.Options{Ctx: ctx, Cfg: canon.Config, Out: &buf, Workloads: canon.Workloads}
		if err := e.Render(o, res); err != nil {
			return nil, err
		}
		out.Report = &ExperimentReport{ID: e.ID, Title: e.Title, Output: buf.String(), Series: out.Series}
		out.Series = nil
		js.spans.Span("render", "job", renderStart, time.Now())
		return out, nil
	}
	sc := canon.Scenario
	if sc == nil {
		sc = &scenario.Scenario{Name: canon.Kind, Policies: canon.Policies}
		for _, w := range canon.Workloads {
			sc.Workloads = append(sc.Workloads, scenario.WorkloadRef{Name: w})
		}
	}
	res, err := runMatrix(ctx, js, []*scenario.Scenario{sc}, out)
	if err != nil {
		return nil, err
	}
	if canon.Kind == KindScenario {
		out.Scenario = res[0]
		return out, nil
	}
	renderStart := time.Now()
	out.Results = make([]core.Result, len(res[0].Cells))
	for i, c := range res[0].Cells {
		out.Results[i] = c.Result
	}
	js.spans.Span("render", "job", renderStart, time.Now())
	return out, nil
}

// runMatrix runs a job's scenarios through experiments.RunScenario and
// observes each cell the way the job asked: its tracker feeds the
// status API, its epochs feed the SSE stream, its wall time becomes a
// span, and its series, metrics snapshot and timeline land in out and
// js.traces at the cell's global index — the scenarios' cells in order,
// however the cells finish. Every cell retires through endSim, failed
// and cancelled ones too, and a failed job keeps the timelines of the
// cells that finished. The result documents are the same bytes with or
// without observers.
func runMatrix(ctx context.Context, js *jobState, scs []*scenario.Scenario, out *JobResult) ([]*scenario.Result, error) {
	canon := js.canon
	epoch := sim.NS(canon.IntervalNS)
	n := 0
	for _, sc := range scs {
		n += len(sc.Cells())
	}
	js.progress.setTotal(n)
	type cellObs struct {
		tr       *engine.Tracker
		start    time.Time
		streamed int
	}
	obs := make([]cellObs, n)
	var series []experiments.SeriesRecord
	var snaps []*metrics.Snapshot
	var traces []*xtrace.SimTrace
	if epoch > 0 {
		series = make([]experiments.SeriesRecord, n)
	}
	if canon.Metrics {
		snaps = make([]*metrics.Snapshot, n)
	}
	if canon.Trace {
		traces = make([]*xtrace.SimTrace, n)
	}
	label := func(c scenario.Cell) experiments.SeriesRecord {
		return experiments.SeriesRecord{Workload: c.Workload.Name, Leveler: c.Leveler, Policy: c.Policy}
	}
	res, err := experiments.RunScenario(ctx, canon.Config, scs, experiments.CellHooks{
		Start: func(i int, c scenario.Cell) experiments.Observation {
			ob := experiments.Observation{Epoch: epoch, Metrics: canon.Metrics, Trace: canon.Trace}
			if epoch > 0 {
				ob.Tracker = &engine.Tracker{}
				// OnEpoch only fires when this goroutine executes the
				// simulation itself; a memo hit or a joined in-flight run
				// streams nothing live and Done flushes the whole memoised
				// series — either way the cell's epoch-event subsequence is
				// exactly the series the result embeds.
				if js.stream != nil {
					rec := label(c)
					ob.OnEpoch = func(s engine.EpochSample) {
						obs[i].streamed++
						js.stream.epoch(i, rec, s)
					}
				}
			}
			obs[i].tr = ob.Tracker
			obs[i].start = time.Now()
			js.progress.beginSim(ob.Tracker)
			return ob
		},
		Done: func(i int, c scenario.Cell, in experiments.Instrumented, err error) {
			name := "sim " + c.Workload.Name + "/" + c.Policy
			args := []string{"workload", c.Workload.Name, "policy", c.Policy}
			if c.Leveler != "" {
				name += " " + c.Leveler
				args = append(args, "leveler", c.Leveler)
			}
			js.spans.Span(name, "cell", obs[i].start, time.Now(), args...)
			js.progress.endSim(obs[i].tr)
			if traces != nil {
				traces[i] = in.Trace
			}
			if err != nil {
				return
			}
			if series != nil {
				series[i] = label(c)
				series[i].Series = in.Series
				js.stream.flushSeries(i, series[i], obs[i].streamed)
			}
			if snaps != nil {
				snaps[i] = in.Metrics
			}
		},
	})
	js.traces = traces
	if err != nil {
		return nil, err
	}
	out.Series, out.Metrics = series, snaps
	return res, nil
}
