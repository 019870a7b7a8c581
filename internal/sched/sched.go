// Package sched provides the process-wide simulation scheduler: a
// weighted, context-aware semaphore with strict FIFO fairness that is
// the single admission gate for every simulation the process runs.
//
// mellowd's worker pool admits jobs, but one job may fan out into many
// simulations (a compare matrix, an experiment sweep). Without a shared
// gate, W concurrent jobs each running NumCPU simulations oversubscribe
// the machine W-fold. Every simulation therefore acquires one slot (or
// more, via weights — a multiprogrammed mix holds one slot per core it
// models) from the scheduler before it runs, so the simulations in
// flight never exceed the configured budget regardless of the job mix.
// A slot counts simulations, not CPUs: while a simulation runs a phase,
// its trace generator runs ahead on a second goroutine
// (cpu.Core.RunCancellable), so one slot may keep two CPUs busy. With
// every slot taken, the generators share the CPUs with the simulations
// they feed (DESIGN.md §3.2).
//
// Fairness is strict FIFO: a blocked acquire parks in arrival order and
// later, smaller acquires do not barge past it. A wide job that queues
// many acquisitions therefore delays a subsequent small job by at most
// the work already queued when the small job arrives — never
// indefinitely.
package sched

import (
	"container/list"
	"context"
	"runtime"
	"sync"
	"time"

	"mellow/internal/metrics"
	"mellow/internal/stats"
	"mellow/internal/xtrace"
)

// waiter is one parked acquire. ready closes when the scheduler grants
// its weight; the waiter's weight is fixed at enqueue time.
type waiter struct {
	weight int64
	ready  chan struct{}
}

// Scheduler is a weighted semaphore with FIFO fairness and
// occupancy/wait instrumentation. The zero value is not usable; call
// New.
type Scheduler struct {
	mu      sync.Mutex
	budget  int64
	inUse   int64
	peak    int64 // high-water mark of inUse
	waiters list.List

	acquires uint64          // grants handed out
	waited   uint64          // grants that parked first
	waitHist stats.Histogram // grant wait time, microseconds
}

// New builds a scheduler with the given slot budget (minimum 1).
func New(budget int64) *Scheduler {
	if budget < 1 {
		budget = 1
	}
	return &Scheduler{budget: budget}
}

// defaultSched is the process-wide scheduler every simulation routes
// through, sized like the old per-sweep default (one slot per CPU).
var defaultSched = New(int64(runtime.GOMAXPROCS(0)))

// Default returns the process-wide scheduler.
func Default() *Scheduler { return defaultSched }

// Acquire blocks until weight slots are free (FIFO among blocked
// acquirers) or ctx ends, and returns an idempotent release function.
// Weights below 1 count as 1; a weight above the budget is clamped to
// it, so an over-wide acquire degrades to exclusive access instead of
// deadlocking. On error (ctx cancelled or expired) no slots are held
// and the returned release is nil.
func (s *Scheduler) Acquire(ctx context.Context, weight int64) (func(), error) {
	if weight < 1 {
		weight = 1
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if weight > s.budget {
		weight = s.budget
	}
	// Fast path: free capacity and nobody queued ahead.
	if s.waiters.Len() == 0 && s.inUse+weight <= s.budget {
		s.grantLocked(weight)
		s.waitHist.Add(0)
		s.mu.Unlock()
		return s.releaser(weight), nil
	}
	w := &waiter{weight: weight, ready: make(chan struct{})}
	elem := s.waiters.PushBack(w)
	s.mu.Unlock()

	start := time.Now()
	select {
	case <-w.ready:
		granted := time.Now()
		s.mu.Lock()
		s.waited++
		s.waitHist.Add(uint64(granted.Sub(start).Microseconds()))
		s.mu.Unlock()
		// Parked acquires are the interesting ones for a trace: record
		// the wait as a span when the context carries a recorder.
		xtrace.FromContext(ctx).Span("sched-wait", "sched", start, granted)
		return s.releaser(weight), nil
	case <-ctx.Done():
		s.mu.Lock()
		select {
		case <-w.ready:
			// Granted concurrently with cancellation: hand the slots
			// straight back (which may wake the next waiter).
			s.mu.Unlock()
			s.release(weight)
		default:
			s.waiters.Remove(elem)
			// Removing a parked head can unblock the waiters behind it.
			s.wakeLocked()
			s.mu.Unlock()
		}
		return nil, ctx.Err()
	}
}

// grantLocked charges weight slots. Callers hold s.mu.
func (s *Scheduler) grantLocked(weight int64) {
	s.inUse += weight
	if s.inUse > s.peak {
		s.peak = s.inUse
	}
	s.acquires++
}

// releaser wraps release so double-calling a grant's release func
// cannot corrupt the occupancy count.
func (s *Scheduler) releaser(weight int64) func() {
	var once sync.Once
	return func() { once.Do(func() { s.release(weight) }) }
}

func (s *Scheduler) release(weight int64) {
	s.mu.Lock()
	s.inUse -= weight
	if s.inUse < 0 {
		// A budget shrink below an already-granted weight can overdraw;
		// clamp so the books stay consistent.
		s.inUse = 0
	}
	s.wakeLocked()
	s.mu.Unlock()
}

// wakeLocked grants parked waiters strictly from the front while they
// fit. The head blocks everyone behind it — that is the FIFO guarantee.
// If the budget shrank below the head's enqueue-time weight, the head
// is granted exclusively once the scheduler drains. Callers hold s.mu.
func (s *Scheduler) wakeLocked() {
	for {
		front := s.waiters.Front()
		if front == nil {
			return
		}
		w := front.Value.(*waiter)
		if s.inUse+w.weight > s.budget && !(s.inUse == 0 && w.weight > s.budget) {
			return
		}
		s.waiters.Remove(front)
		s.grantLocked(w.weight)
		close(w.ready)
	}
}

// SetBudget resizes the slot budget (minimum 1). Growing wakes parked
// waiters immediately; shrinking never revokes granted slots — the
// scheduler just stops granting until occupancy drains below the new
// budget.
func (s *Scheduler) SetBudget(n int64) {
	if n < 1 {
		n = 1
	}
	s.mu.Lock()
	s.budget = n
	s.wakeLocked()
	s.mu.Unlock()
}

// Stats is a point-in-time snapshot of the scheduler's occupancy.
type Stats struct {
	// Budget is the configured slot budget.
	Budget int64
	// InUse is the weight currently granted; never exceeds Budget except
	// transiently after a budget shrink.
	InUse int64
	// Peak is the high-water mark of InUse since construction.
	Peak int64
	// Waiters is the number of acquires currently parked.
	Waiters int
	// Acquires counts grants handed out; Waited counts the subset that
	// parked before being granted.
	Acquires uint64
	Waited   uint64
}

// Stats snapshots the scheduler's occupancy and counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Budget:   s.budget,
		InUse:    s.inUse,
		Peak:     s.peak,
		Waiters:  s.waiters.Len(),
		Acquires: s.acquires,
		Waited:   s.waited,
	}
}

// WaitHistogram returns a copy of the grant wait-time distribution in
// microseconds (one sample per grant; zero for uncontended acquires).
func (s *Scheduler) WaitHistogram() stats.Histogram {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.waitHist
}

// Collector returns a read-only metrics collector publishing the
// scheduler's occupancy, grant counters and wait distribution under the
// given name prefix. It takes the scheduler mutex only long enough to
// snapshot — never while the caller renders.
func (s *Scheduler) Collector(prefix string) metrics.Collector {
	return func(g *metrics.Gatherer) {
		st := s.Stats()
		g.Gauge(prefix+"sched_budget", "Process-wide simulation slot budget.", float64(st.Budget))
		g.Gauge(prefix+"sched_slots_in_use", "Simulation slots currently held.", float64(st.InUse))
		g.Gauge(prefix+"sched_waiters", "Simulations parked waiting for a scheduler slot.", float64(st.Waiters))
		g.Counter(prefix+"sched_acquires_total", "Scheduler slot grants handed out.", st.Acquires)
		g.Counter(prefix+"sched_waited_total", "Grants that queued before being granted.", st.Waited)
		g.Histogram(prefix+"sched_wait_seconds",
			"Time simulations waited for a scheduler slot before running.", 1e-6, s.WaitHistogram())
	}
}
