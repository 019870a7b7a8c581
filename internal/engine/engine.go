// Package engine owns the simulation run pipeline: the warmup →
// detailed → drain phasing that used to live inline in core.Run, plus an
// epoch-probe observer layer that turns a run from an opaque black box
// into a live, interval-resolved time series.
//
// The paper's mechanisms are all periodic — the LLC useless-position
// profiler rotates and Wear Quota re-budgets every 500 µs — so the
// engine samples on the same clock: a sim.Kernel probe fires every
// EpochTicks of simulated time and snapshots the cheap probe counters of
// cpu, cache and mem into an EpochSample. Probes are read-only observers
// interleaved deterministically with the event heap, so a run with an
// epoch probe attached produces bit-identical results to one without,
// and the series itself is deterministic: same (config, policy,
// workload, seed, epoch) → same samples, byte for byte.
package engine

import (
	"context"
	"math"
	"sync/atomic"

	"mellow/internal/cache"
	"mellow/internal/config"
	"mellow/internal/cpu"
	"mellow/internal/mem"
	"mellow/internal/metrics"
	"mellow/internal/sim"
	"mellow/internal/xtrace"
)

// Phase names the engine's run phases.
const (
	PhaseWarmup   = "warmup"
	PhaseDetailed = "detailed"
	PhaseDrain    = "drain"
)

// DefaultEpoch is the default sampling period: 500 µs of simulated time,
// matching the paper's T_sample (profiler rotation and Wear Quota
// period), so one epoch spans exactly one re-profiling interval.
const DefaultEpoch = sim.Tick(1_000_000) // sim.NS(500_000)

// EpochSample is one closed observation interval. Counter fields are
// deltas over the epoch; queue and damage fields are instantaneous at
// the epoch boundary. End ticks are strictly increasing within a run.
type EpochSample struct {
	// Epoch is the zero-based sample index within the run.
	Epoch int `json:"epoch"`
	// Phase is the run phase the epoch closed in.
	Phase string `json:"phase"`
	// Start and End bound the interval in kernel ticks (0.5 ns).
	Start sim.Tick `json:"start_tick"`
	End   sim.Tick `json:"end_tick"`

	// Core progress over the epoch.
	Instructions uint64  `json:"instructions"`
	Cycles       float64 `json:"cycles"`
	IPC          float64 `json:"ipc"`

	// LLC traffic over the epoch.
	LLCHits      uint64 `json:"llc_hits"`
	LLCMisses    uint64 `json:"llc_misses"`
	LLCEvictions uint64 `json:"llc_evictions"`
	EagerIssued  uint64 `json:"eager_issued"`

	// Memory traffic over the epoch.
	Reads         uint64 `json:"reads"`
	WritesFast    uint64 `json:"writes_fast"`
	WritesSlow    uint64 `json:"writes_slow"`
	EagerDone     uint64 `json:"eager_done"`
	Cancellations uint64 `json:"cancellations"`
	Pauses        uint64 `json:"pauses"`
	Drains        uint64 `json:"drains"`

	// Instantaneous controller state at the epoch boundary.
	ReadQueue  int  `json:"read_queue"`
	WriteQueue int  `json:"write_queue"`
	EagerQueue int  `json:"eager_queue"`
	Draining   bool `json:"draining,omitempty"`

	// Cumulative wear at the epoch boundary (normal-write units, never
	// reset — the quantity Wear Quota budgets against).
	MaxBankDamage float64   `json:"max_bank_damage"`
	BankDamage    []float64 `json:"bank_damage,omitempty"`

	// Progress is the run's fractional completion at the boundary.
	Progress float64 `json:"progress"`
}

// Tracker publishes a run's live telemetry — fractional progress and the
// last closed epoch — through atomics, so a concurrent reader (an HTTP
// status handler) can observe a simulation mid-flight without locks and
// without perturbing it.
type Tracker struct {
	progress atomic.Uint64 // float64 bits, monotone non-decreasing
	sample   atomic.Pointer[EpochSample]
	epochs   atomic.Uint64
}

// Progress returns the last published completion fraction in [0, 1].
func (t *Tracker) Progress() float64 {
	return math.Float64frombits(t.progress.Load())
}

// SetProgress publishes p, clamped to [0, 1] and never moving backwards.
func (t *Tracker) SetProgress(p float64) {
	if p < 0 || math.IsNaN(p) {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	for {
		old := t.progress.Load()
		if math.Float64frombits(old) >= p {
			return
		}
		if t.progress.CompareAndSwap(old, math.Float64bits(p)) {
			return
		}
	}
}

// Sample returns the last closed epoch, or nil before the first one.
// The returned sample is immutable; BankDamage must not be modified.
func (t *Tracker) Sample() *EpochSample {
	return t.sample.Load()
}

// Epochs returns the number of epochs closed so far.
func (t *Tracker) Epochs() uint64 { return t.epochs.Load() }

func (t *Tracker) publish(s *EpochSample) {
	t.sample.Store(s)
	t.epochs.Add(1)
	t.SetProgress(s.Progress)
}

// Options configure an engine run. The zero value observes nothing: no
// probe is registered and the run takes exactly the pre-engine path.
type Options struct {
	// Epoch is the sampling period in ticks. Zero disables the epoch
	// probe unless a Tracker or OnEpoch hook is set, in which case
	// DefaultEpoch applies.
	Epoch sim.Tick
	// Collect retains the full []EpochSample series in the Outcome.
	Collect bool
	// BankDamage includes the per-bank damage vector in every sample
	// (off by default: it is the one per-epoch field that is O(banks)
	// in the JSON encoding).
	BankDamage bool
	// Tracker, when set, receives live progress and the current epoch.
	Tracker *Tracker
	// OnEpoch, when set, is called synchronously with each closed
	// sample. It must not mutate simulation state.
	OnEpoch func(EpochSample)
	// Metrics, when set, receives the run's component collectors: cpu,
	// cache, mem and wear publish their counters into this per-run
	// registry, and a snapshot taken after Run returns is deterministic
	// — collectors are read-only and only evaluated at snapshot time,
	// so attaching a registry never perturbs event order.
	Metrics *metrics.Registry
	// Timeline, when set, records the run's execution timeline: phase
	// and epoch slices from the engine plus the per-bank operation
	// events from the memory controller. Like every observer here it is
	// append-only — a traced run is bit-identical to an untraced one —
	// and it does not by itself enable the epoch probe.
	Timeline *xtrace.Recorder
}

// observing reports whether an epoch probe is wanted at all.
func (o Options) observing() bool {
	return o.Epoch > 0 || o.Collect || o.Tracker != nil || o.OnEpoch != nil
}

func (o Options) epoch() sim.Tick {
	if o.Epoch > 0 {
		return o.Epoch
	}
	return DefaultEpoch
}

// Outcome is the engine's measurement of one run: the end-of-run
// aggregates every paper figure is built from, plus the epoch series
// when Options.Collect was set.
type Outcome struct {
	Instructions uint64
	Cycles       float64
	IPC          float64
	Mem          mem.Snapshot
	Cache        cache.Stats
	Series       []EpochSample
}

// Engine drives one wired system through the run phases. It owns no
// model state — construction is cheap and an Engine is single-use.
type Engine struct {
	kernel *sim.Kernel
	hier   *cache.Hierarchy
	ctl    *mem.Controller
	core   *cpu.Core
	run    config.Run
	opts   Options

	phase      string
	totalInstr uint64 // warmup + detailed, for progress accounting
	epochIdx   int
	prevEnd    sim.Tick
	prevCPU    cpu.ProbeCounters
	prevCache  cache.ProbeCounters
	prevMem    mem.ProbeCounters
	series     []EpochSample
	tracker    *Tracker
	pool       epochPool
}

// epochPool hands out EpochSamples in chunks. Tracker.publish retains a
// pointer to the last closed sample and concurrent readers may still
// hold older ones, so slots are pointer-stable and never recycled within
// a run; the chunking just batches what used to be one heap allocation
// per epoch into one per chunk of samples.
type epochPool struct {
	chunk []EpochSample
	n     int
}

func (p *epochPool) alloc() *EpochSample {
	if p.n == len(p.chunk) {
		p.chunk = make([]EpochSample, 128)
		p.n = 0
	}
	s := &p.chunk[p.n]
	p.n++
	return s
}

// New wires an engine over an assembled system. The components must all
// share kernel.
func New(kernel *sim.Kernel, hier *cache.Hierarchy, ctl *mem.Controller,
	core *cpu.Core, run config.Run, opts Options) *Engine {
	e := &Engine{
		kernel: kernel, hier: hier, ctl: ctl, core: core,
		run: run, opts: opts,
		totalInstr: run.WarmupInstructions + run.DetailedInstructions,
		tracker:    opts.Tracker,
	}
	if e.tracker == nil {
		e.tracker = &Tracker{}
	}
	return e
}

// Progress returns the run's live completion fraction in [0, 1]. Safe
// to call from other goroutines while Run executes.
func (e *Engine) Progress() float64 { return e.tracker.Progress() }

// Tracker returns the engine's telemetry tracker (the one passed in
// Options, or an internal one).
func (e *Engine) Tracker() *Tracker { return e.tracker }

// Phase returns the current run phase (single-threaded use only).
func (e *Engine) Phase() string { return e.phase }

// rebase re-captures the probe-counter baselines; called at start and
// after the warmup-boundary stats reset so epoch deltas never span a
// counter reset.
func (e *Engine) rebase() {
	e.prevCPU = e.core.ProbeCounters()
	e.prevCache = e.hier.ProbeCounters()
	e.prevMem = e.ctl.ProbeCounters()
}

// sampleEpoch is the probe callback: close the interval ending at now.
func (e *Engine) sampleEpoch(now sim.Tick) {
	curCPU := e.core.ProbeCounters()
	curCache := e.hier.ProbeCounters()
	curMem := e.ctl.ProbeCounters()
	dCPU := curCPU.Delta(e.prevCPU)
	dCache := curCache.Delta(e.prevCache)
	dMem := curMem.Delta(e.prevMem)

	s := e.pool.alloc()
	*s = EpochSample{
		Epoch:         e.epochIdx,
		Phase:         e.phase,
		Start:         e.prevEnd,
		End:           now,
		Instructions:  dCPU.Instructions,
		Cycles:        dCPU.Cycles,
		LLCHits:       dCache.LLCHits,
		LLCMisses:     dCache.LLCMisses,
		LLCEvictions:  dCache.LLCEvictions,
		EagerIssued:   dCache.EagerIssued,
		Reads:         dMem.Reads,
		WritesFast:    dMem.WritesFast,
		WritesSlow:    dMem.WritesSlow,
		EagerDone:     dMem.EagerDone,
		Cancellations: dMem.Cancellations,
		Pauses:        dMem.Pauses,
		Drains:        dMem.Drains,
		ReadQueue:     dMem.ReadQueue,
		WriteQueue:    dMem.WriteQueue,
		EagerQueue:    dMem.EagerQueue,
		Draining:      dMem.Draining,
		MaxBankDamage: dMem.MaxBankDamage,
		Progress:      e.progressAt(curCPU.Instructions),
	}
	if dCPU.Cycles > 0 {
		s.IPC = float64(dCPU.Instructions) / dCPU.Cycles
	}
	if e.opts.BankDamage {
		s.BankDamage = dMem.BankDamage
	}

	e.opts.Timeline.Slice(xtrace.TrackEpoch, "epoch", "epoch",
		s.Start, s.End, 0, uint64(s.Epoch))

	e.epochIdx++
	e.prevEnd = now
	e.prevCPU, e.prevCache, e.prevMem = curCPU, curCache, curMem
	if e.opts.Collect {
		e.series = append(e.series, *s)
	}
	e.tracker.publish(s)
	if e.opts.OnEpoch != nil {
		e.opts.OnEpoch(*s)
	}
}

// progressAt maps a cumulative instruction count to a run fraction.
func (e *Engine) progressAt(instrs uint64) float64 {
	if e.totalInstr == 0 {
		return 0
	}
	p := float64(instrs) / float64(e.totalInstr)
	if p > 1 {
		p = 1
	}
	return p
}

// Run executes the phases: warmup (statistics frozen), detailed (the
// measured window), and drain (the memory clock catches up with the
// core before the final snapshot). With no observation options set it
// is bit-identical to the pre-engine pipeline; with an epoch probe the
// results are still identical and a deterministic time series is
// produced on the side. Cancellation aborts at the next checkpoint with
// ctx's error.
func (e *Engine) Run(ctx context.Context) (Outcome, error) {
	if reg := e.opts.Metrics; reg != nil {
		// The collectors are registered up front but evaluated only when
		// the registry is snapshotted — typically after Run returns, when
		// the system is quiescent, so the snapshot is deterministic.
		reg.RegisterCollector(e.core.CollectMetrics)
		reg.RegisterCollector(e.hier.CollectMetrics)
		reg.RegisterCollector(e.ctl.CollectMetrics)
	}
	// context.Background and friends have a nil Done channel; skip the
	// per-checkpoint poll entirely for them.
	var cancelled func() bool
	if ctx.Done() != nil {
		cancelled = func() bool { return ctx.Err() != nil }
	}
	if e.opts.observing() {
		// Progress piggybacks on the core's cancellation checkpoints
		// (every 1024 trace ops); the poll itself never perturbs the
		// simulation, so results remain bit-identical.
		inner := cancelled
		cancelled = func() bool {
			e.tracker.SetProgress(e.progressAt(e.core.Instructions()))
			return inner != nil && inner()
		}
		id := e.kernel.AddProbe(e.opts.epoch(), e.sampleEpoch)
		defer e.kernel.RemoveProbe(id)
		e.rebase()
	}
	tl := e.opts.Timeline
	if tl != nil {
		e.ctl.SetTrace(tl)
		defer e.ctl.SetTrace(nil)
	}

	e.phase = PhaseWarmup
	phaseStart := e.kernel.Now()
	if e.run.WarmupInstructions > 0 {
		if !e.core.RunCancellable(ctx, e.run.WarmupInstructions, cancelled) {
			return Outcome{}, ctx.Err()
		}
	}
	tl.Slice(xtrace.TrackPhase, PhaseWarmup, "phase", phaseStart, e.kernel.Now(), 0, 0)
	e.hier.ResetStats()
	e.ctl.ResetStats()
	e.core.BeginMeasurement()
	// Counter baselines must not span the warmup-boundary reset.
	if e.opts.observing() {
		e.rebase()
	}

	e.phase = PhaseDetailed
	phaseStart = e.kernel.Now()
	if !e.core.RunCancellable(ctx, e.run.DetailedInstructions, cancelled) {
		return Outcome{}, ctx.Err()
	}
	tl.Slice(xtrace.TrackPhase, PhaseDetailed, "phase", phaseStart, e.kernel.Now(), 0, 0)

	// Drain: align the memory clock with the core before snapshotting so
	// utilization windows match the measured cycles.
	e.phase = PhaseDrain
	phaseStart = e.kernel.Now()
	if t := sim.Tick(e.core.Cycles()); t > e.ctl.Now() {
		e.ctl.AdvanceTo(t)
	}
	tl.Slice(xtrace.TrackPhase, PhaseDrain, "phase", phaseStart, e.kernel.Now(), 0, 0)
	e.ctl.FlushTrace()

	out := Outcome{
		Instructions: e.core.MeasuredInstructions(),
		Cycles:       e.core.MeasuredCycles(),
		IPC:          e.core.IPC(),
		Mem:          e.ctl.Snapshot(),
		Cache:        e.hier.Snapshot(),
		Series:       e.series,
	}
	if e.opts.observing() {
		// Close a final partial epoch so the series covers the whole
		// run; skip it when the probe already sampled this exact tick.
		if now := e.kernel.Now(); now > e.prevEnd {
			e.sampleEpoch(now)
			out.Series = e.series
		}
		e.tracker.SetProgress(1)
	}
	return out, nil
}
