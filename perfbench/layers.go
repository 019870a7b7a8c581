package main

import (
	"math"
	"math/bits"
	"time"

	"mellow/internal/cache"
	"mellow/internal/mem"
	"mellow/internal/rng"
	"mellow/internal/sim"
	"mellow/internal/trace"
	"mellow/internal/wear"
)

// The per-layer replays rebuild each layer from its public constructor
// and drive it with the reference cell's inputs, so they share no state
// with the timed simulations: a fresh generator, a fresh Hierarchy with
// a fresh RNG, a fresh Kernel and Controller, fresh Levelers.

// memItem is one LLC-to-memory request the cache replay produced.
type memItem struct {
	line  uint64
	write bool
}

// cacheReplay is what replaying the op stream through a Hierarchy gives.
type cacheReplay struct {
	items      []memItem
	eager      []uint64
	accessNs   float64
	eagerNs    float64
	eagerCalls int
}

// minObserves is the least number of Leveler.Observe calls a wear
// replay times; short write-back streams are replayed repeatedly.
const minObserves = 1 << 18

// sinkOp keeps the compiler from discarding the timed Next calls.
var sinkOp trace.Op

// replayGenerator times n calls of Next on a fresh generator.
func replayGenerator(c cell, n uint64) time.Duration {
	return medianOf3(func() {
		g := c.w.New(c.cfg.Run.Seed)
		for i := uint64(0); i < n; i++ {
			sinkOp = g.Next()
		}
	})
}

// replayCache drives a standalone Hierarchy with ops. Simulated time
// advances by gap per LLC miss; it rotates the LRU profiler every
// ProfilePeriod and, under an eager policy, asks for an eager candidate
// after every miss, as the memory controller's pump would.
func replayCache(c cell, ops []trace.Op, gap sim.Tick) cacheReplay {
	var out cacheReplay
	var accesses, eagers []float64
	for rep := 0; rep < 3; rep++ {
		h := cache.NewHierarchy(c.cfg.Caches, rng.New(c.cfg.Run.Seed).Branch(1))
		period := c.cfg.Caches.ProfilePeriod
		out.items, out.eager, out.eagerCalls = out.items[:0], out.eager[:0], 0
		var now sim.Tick
		nextRotate := period
		var eagerDur time.Duration
		t0 := time.Now()
		for _, op := range ops {
			a := h.Access(op.Addr, op.Write)
			for _, wb := range a.Writebacks {
				out.items = append(out.items, memItem{line: wb, write: true})
			}
			if !a.Fetch {
				continue
			}
			out.items = append(out.items, memItem{line: a.FetchAddr})
			now += gap
			for now >= nextRotate {
				h.RotateProfile()
				nextRotate += period
			}
			if c.spec.Eager {
				te := time.Now()
				line, ok := h.EagerCandidate()
				eagerDur += time.Since(te)
				out.eagerCalls++
				if ok {
					out.eager = append(out.eager, line)
				}
			}
		}
		total := time.Since(t0)
		accesses = append(accesses, perOp(total-eagerDur, len(ops)))
		eagers = append(eagers, perOp(eagerDur, out.eagerCalls))
	}
	out.accessNs, out.eagerNs = median(accesses), median(eagers)
	return out
}

// replayMem feeds a standalone controller on a fresh kernel the cache
// replay's fetches and write-backs, one fetch per gap of simulated time,
// with the replay's eager candidates as its eager source. It returns the
// median wall time, the requests submitted and the events fired.
func replayMem(c cell, cr cacheReplay, gap sim.Tick) (time.Duration, int, uint64) {
	var fired uint64
	d := medianOf3(func() {
		k := &sim.Kernel{}
		ctl := mem.New(k, c.cfg.Memory, c.spec)
		next := 0
		ctl.SetEagerSource(func() (uint64, bool) {
			if next == len(cr.eager) {
				return 0, false
			}
			next++
			return cr.eager[next-1], true
		})
		var now sim.Tick
		for _, it := range cr.items {
			if it.write {
				ctl.SubmitWrite(it.line, now)
				continue
			}
			now += gap
			ctl.SubmitRead(it.line, now)
		}
		ctl.Drain()
		fired = k.Fired()
	})
	return d, len(cr.items), fired
}

// replayWear times Observe on one fresh Leveler per bank for each
// backend, over the cache replay's write-back lines mapped to their
// bank and in-bank block as the controller maps them.
func replayWear(c cell, items []memItem) (map[string]float64, error) {
	var lines []uint64
	for _, it := range items {
		if it.write {
			lines = append(lines, it.line)
		}
	}
	if len(lines) == 0 {
		lines = []uint64{0}
	}
	m := c.cfg.Memory
	nb := m.Banks()
	bankBits := uint(bits.TrailingZeros(uint(nb)))
	blocks := m.BlocksPerBank()
	reps := (minObserves + len(lines) - 1) / len(lines)
	out := map[string]float64{}
	for _, backend := range wear.Backends() {
		var ds []float64
		for rep := 0; rep < 3; rep++ {
			levs := make([]wear.Leveler, nb)
			for b := range levs {
				lv, err := wear.NewLeveler(wear.LevelerConfig{
					Backend:             backend,
					Blocks:              blocks,
					Seed:                uint64(b),
					StartGapPsi:         m.StartGapPsi,
					StartGapEfficiency:  m.StartGapEfficiency,
					WolframSwapPeriod:   m.WolframSwapPeriod,
					SoftWearPageBlocks:  m.SoftWearPageBlocks,
					SoftWearEpochWrites: m.SoftWearEpochWrites,
				})
				if err != nil {
					return nil, err
				}
				levs[b] = lv
			}
			t := time.Now()
			for i := 0; i < reps; i++ {
				for _, line := range lines {
					levs[line&uint64(nb-1)].Observe(int64(line>>bankBits) % blocks)
				}
			}
			ds = append(ds, perOp(time.Since(t), reps*len(lines)))
		}
		out[backend] = median(ds)
	}
	return out, nil
}

// reportLayers runs every replay for the reference cell and reports the
// per-layer metrics common to all workloads. ref is the reference
// simulation (counted, so ops is its Next-call count) and refWall the
// wall time of one plain simulation of the cell, in seconds.
func reportLayers(r *run, c cell, ref simOut, ops uint64, refWall float64, shares map[string]float64) error {
	res := ref.res
	instr := float64(c.instructions())

	// Exact simulated counts: identical on every run of one seed.
	r.put("cpu.ipc", "instr/cycle", res.IPC)
	r.put("cpu.instructions", "count", float64(res.Instructions))
	r.put("mem.reads", "count", float64(res.Mem.Reads))
	r.put("mem.writes_fast", "count", float64(res.Mem.WritesByMode[0]))
	r.put("mem.writes_slow", "count", float64(res.Mem.SlowWrites()))
	r.put("mem.cancellations", "count", float64(res.Mem.TotalCancelled()))
	r.put("mem.drain_fraction", "ratio", res.Mem.DrainFraction)
	lat := res.Mem.ReadLatency
	r.put("mem.read_latency_ns_p50", "ns", float64(lat.Quantile(0.5)))
	life := res.Mem.LifetimeYears
	if math.IsInf(life, 1) {
		life = 0 // no completed write: no wear to project from
	}
	r.put("mem.lifetime_years", "years", life)
	r.put("wear.moves", "count", float64(res.Mem.GapMoves))
	l1 := res.Cache.L1Hits + res.Cache.L1Misses
	r.put("cache.l1_hit_ratio", "ratio", float64(res.Cache.L1Hits)/math.Max(1, float64(l1)))
	r.put("cache.llc_mpki", "1/kinstr", res.MPKI)
	r.put("cache.eager_issued", "count", float64(res.Cache.EagerIssued))
	r.put("sim.events", "count", float64(ref.events))
	r.put("sim.events_per_kinstr", "1/kinstr", float64(ref.events)/(instr/1000))
	r.put("trace.ops", "count", float64(ops))

	// Host time per call, from the standalone replays.
	gap := res.Mem.Window
	if res.Cache.LLCMisses > 0 {
		gap = res.Mem.Window / sim.Tick(res.Cache.LLCMisses)
	}
	nextNs := perOp(replayGenerator(c, ops), int(ops))
	g := c.w.New(c.cfg.Run.Seed)
	stream := make([]trace.Op, ops)
	for i := range stream {
		stream[i] = g.Next()
	}
	cr := replayCache(c, stream, gap)
	memWall, requests, fired := replayMem(c, cr, gap)
	observe, err := replayWear(c, cr.items)
	if err != nil {
		return err
	}
	eventNs := perOp(memWall, int(fired))
	r.put("trace.next_ns", "ns", nextNs)
	r.put("cache.access_ns", "ns", cr.accessNs)
	r.put("cache.eager_ns", "ns", cr.eagerNs)
	r.put("mem.request_ns", "ns", perOp(memWall, requests))
	r.put("sim.event_ns", "ns", eventNs)
	for backend, ns := range observe {
		r.put("wear.observe_ns."+backend, "ns", ns)
	}

	// Each layer's share of one simulation's wall time, estimated as
	// replayed cost per call × the simulation's own call count. Eager
	// calls scale the detailed-window count to the whole run.
	wallNs := refWall * 1e9
	eagerCalls := float64(res.Cache.EagerIssued) * instr / math.Max(1, float64(res.Instructions))
	r.put("trace.share", "%", 100*nextNs*float64(ops)/wallNs)
	r.put("cache.share", "%", 100*(cr.accessNs*float64(ops)+cr.eagerNs*eagerCalls)/wallNs)
	r.put("mem.share", "%", 100*eventNs*float64(ref.events)/wallNs)

	for name, pct := range shares {
		r.put("pprof."+name+"_pct", "%", pct)
	}
	return nil
}
