package mem

import (
	"fmt"

	"mellow/internal/sim"
)

// This file holds the controller's indexed request containers: a chunked
// request arena (so the hot path never allocates per request) and the
// intrusive per-bank FIFO queues that replaced the old []*Request slices
// with their per-issue linear scans.

// reqChunkBits sizes the arena chunks: 512 requests (~64 KB) each.
const reqChunkBits = 9

// reqArena hands out Requests from chunks and recycles their slots
// through a free list, so a run's footprint follows the requests in
// flight, not the run's length: one chunk serves a whole run. A slot is
// freed when its request has no further use — a write when it completes
// or is dropped, a read when its data has arrived and its last holder
// released it (see Controller.Release). Events name requests by slot
// index; the slot's issue generation survives reuse, so a stale
// completion event can never match a later occupant.
type reqArena struct {
	chunks [][]Request
	n      uint32   // slots ever handed out: the occupancy high-water mark
	free   []uint32 // recycled slots, reused last-in first-out
}

// alloc returns a zeroed Request with its arena index stamped, reusing a
// freed slot before growing a chunk.
func (a *reqArena) alloc() *Request {
	if n := len(a.free); n > 0 {
		idx := a.free[n-1]
		a.free = a.free[:n-1]
		r := a.at(idx)
		if r.holders != 0 {
			panic("mem: recycled request slot still has holders")
		}
		*r = Request{idx: idx, gen: r.gen}
		return r
	}
	ci, off := int(a.n>>reqChunkBits), int(a.n&(1<<reqChunkBits-1))
	if off == 0 {
		a.chunks = append(a.chunks, make([]Request, 1<<reqChunkBits))
	}
	r := &a.chunks[ci][off]
	r.idx = a.n
	a.n++
	return r
}

// release puts r's slot on the free list.
func (a *reqArena) release(r *Request) { a.free = append(a.free, r.idx) }

// at resolves an arena index (an event payload word) to its Request.
func (a *reqArena) at(idx uint32) *Request {
	return &a.chunks[idx>>reqChunkBits][idx&(1<<reqChunkBits-1)]
}

// ArenaStats describes the request arena's occupancy.
type ArenaStats struct {
	// Slots is the number of slots ever handed out. Freed slots are reused
	// first, so it is also the peak number of requests alive at once.
	Slots int
	// Live is the number of slots holding a request now.
	Live int
	// Holders is the number of references held on the live reads
	// (Controller.Retain/Release).
	Holders int
	// Chunks is the number of arena chunks allocated.
	Chunks int
}

// AuditArena reports the arena's occupancy and checks its free list: an
// error means a request was freed twice, or freed while still held.
func (c *Controller) AuditArena() (ArenaStats, error) {
	a := &c.arena
	s := ArenaStats{Slots: int(a.n), Live: int(a.n) - len(a.free), Chunks: len(a.chunks)}
	seen := make([]bool, a.n)
	for _, idx := range a.free {
		if seen[idx] {
			return s, fmt.Errorf("mem: request slot %d is on the free list twice", idx)
		}
		seen[idx] = true
		if h := a.at(idx).holders; h != 0 {
			return s, fmt.Errorf("mem: free request slot %d has %d holders", idx, h)
		}
	}
	for idx := range seen {
		if !seen[idx] {
			s.Holders += int(a.at(uint32(idx)).holders)
		}
	}
	return s, nil
}

// bankFIFO is one bank's intrusive request list, linked through the
// Request next/prev fields and kept in (arrive, submission) order: new
// requests arrive at monotone ticks and append at the tail, and the only
// front insertions are cancelled/paused writes, which by construction
// arrived no later than anything still queued for the bank. The head is
// therefore always the oldest request — the O(1) answer to what used to
// be a scan.
type bankFIFO struct {
	head, tail *Request
	n          int
}

// reqQueue is one controller queue (read, write or eager) indexed by
// bank. The aggregate size drives the full/drain thresholds; per-bank
// lists drive issue selection.
type reqQueue struct {
	size  int
	banks []bankFIFO
}

func (q *reqQueue) init(banks int) { q.banks = make([]bankFIFO, banks) }

// pushBack appends r to its bank's list (new arrivals).
func (q *reqQueue) pushBack(r *Request) {
	f := &q.banks[r.Bank]
	r.next, r.prev = nil, f.tail
	if f.tail != nil {
		f.tail.next = r
	} else {
		f.head = r
	}
	f.tail = r
	f.n++
	q.size++
}

// pushFront re-queues a preempted request at its bank's head.
func (q *reqQueue) pushFront(r *Request) {
	f := &q.banks[r.Bank]
	r.prev, r.next = nil, f.head
	if f.head != nil {
		f.head.prev = r
	} else {
		f.tail = r
	}
	f.head = r
	f.n++
	q.size++
}

// remove unlinks r from its bank's list.
func (q *reqQueue) remove(r *Request) {
	f := &q.banks[r.Bank]
	if r.prev != nil {
		r.prev.next = r.next
	} else {
		f.head = r.next
	}
	if r.next != nil {
		r.next.prev = r.prev
	} else {
		f.tail = r.prev
	}
	r.next, r.prev = nil, nil
	f.n--
	q.size--
}

// oldest returns the oldest queued request for a bank, or nil. O(1).
func (q *reqQueue) oldest(bank int) *Request {
	return q.banks[bank].head
}

// count returns the number of queued requests for a bank. O(1).
func (q *reqQueue) count(bank int) int { return q.banks[bank].n }

// find returns the queued request holding line, or nil. The walk spans
// only the line's bank list (a handful of entries) instead of the whole
// queue.
func (q *reqQueue) find(bank int, line uint64) *Request {
	for r := q.banks[bank].head; r != nil; r = r.next {
		if r.Line == line {
			return r
		}
	}
	return nil
}

// wake schedules (or dedups) a scheduling attempt for a bank at tick t.
// The bank's precomputed next-wakeup tick makes redundant scheduler
// events disappear: several same-tick submissions to one bank used to
// enqueue one no-op trySchedule event each; now the first wins and the
// rest cost a comparison. An idle bank has no pending wake event at all.
func (c *Controller) wake(bank int, t sim.Tick) {
	b := &c.banks[bank]
	if b.wakeSet && b.wakeAt == t {
		return
	}
	b.wakeSet, b.wakeAt = true, t
	c.k.AtEvent(t, c, evWord(opSched, bank, 0), 0)
}
