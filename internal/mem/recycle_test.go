package mem

import (
	"testing"

	"mellow/internal/policy"
	"mellow/internal/sim"
)

// advanceUntilCur runs the controller until the bank's in-flight
// operation is the request holding line, and returns that request.
func advanceUntilCur(t *testing.T, k *sim.Kernel, c *Controller, bank int, line uint64) *Request {
	t.Helper()
	if !k.AdvanceUntil(func() bool { cur := c.banks[bank].cur; return cur != nil && cur.Line == line }) {
		t.Fatalf("line %#x never issued on bank %d", line, bank)
	}
	return c.banks[bank].cur
}

// checkNoEarlyCompletion asserts that the stale completion event at
// stale, left behind by the slot's previous occupant, does not finish w,
// the slot's new occupant, which is the bank's in-flight write.
func checkNoEarlyCompletion(t *testing.T, k *sim.Kernel, c *Controller, bank int, w *Request, stale sim.Tick) {
	t.Helper()
	if c.banks[bank].cur != w || w.attempts != 1 {
		t.Fatalf("setup: new occupant is not the bank's first-attempt write (attempts %d)", w.attempts)
	}
	end := c.banks[bank].freeAt
	if now := k.Now(); now >= stale || end <= stale {
		t.Fatalf("setup: stale completion at %d does not fall inside the new pulse [%d, %d)", stale, now, end)
	}
	done := c.counts.WritesDone
	c.AdvanceTo(stale + sim.MemCycle)
	if c.banks[bank].cur != w || c.counts.WritesDone != done {
		t.Fatalf("the stale completion event finished the slot's new occupant at %d, before its pulse ends at %d", stale, end)
	}
	c.AdvanceTo(end + sim.NS(1000))
	if c.counts.WritesDone != done+1 {
		t.Fatalf("writes done = %d, want %d", c.counts.WritesDone, done+1)
	}
}

// A cancelled slow write that is re-issued as a fast pulse completes —
// and frees its slot — before the completion event of its first pulse
// fires. A new write reusing the slot must not be finished by that
// stale event, even though it is the same bank's in-flight write with
// the same attempt count the stale event was issued for.
func TestStaleCompletionAfterCancelCannotFinishReusedSlot(t *testing.T) {
	const bank = 5
	k, c := newCtl(policy.BMellow().WithSC())
	line := func(n int) uint64 { return lineForBank(bank, n) }
	c.WaitRead(c.SubmitRead(line(0), 0)) // open the row: later reads hit

	// The sole write for the bank is slow (450 ns) and cancellable.
	c.SubmitWrite(line(1), k.Now())
	w1 := advanceUntilCur(t, k, c, bank, line(1))
	stale := c.banks[bank].freeAt
	// A second write makes the retry fast; the read cancels the pulse.
	c.SubmitWrite(line(2), k.Now())
	c.SubmitRead(line(3), k.Now())
	if c.counts.Cancellations != 1 {
		t.Fatalf("setup: cancellations = %d, want 1", c.counts.Cancellations)
	}
	// The fast retry finishes first and frees the slot; the other write
	// takes the bank.
	advanceUntilCur(t, k, c, bank, line(2))
	if c.counts.WritesDone != 1 || k.Now() >= stale {
		t.Fatalf("setup: retry did not finish before the stale event (done %d, now %d, stale %d)",
			c.counts.WritesDone, k.Now(), stale)
	}
	// The next write reuses the freed slot; cancelling the bank's write
	// lets it through after one fast retry, still before the stale tick.
	c.SubmitWrite(line(4), k.Now())
	if w2 := c.writeQ.find(bank, line(4)); w2 != w1 {
		t.Fatal("setup: the new write did not reuse the freed slot")
	}
	c.SubmitRead(line(5), k.Now())
	w2 := advanceUntilCur(t, k, c, bank, line(4))
	checkNoEarlyCompletion(t, k, c, bank, w2, stale)
}

// The same under write pausing (+WP): an eager write is paused, resumed
// and paused again, leaving stale completion events behind, and is then
// dropped by a write-back of its line. The write-back reuses the slot
// and becomes the bank's in-flight write; the first pulse's stale event
// must not finish it.
func TestStaleCompletionAfterPauseCannotFinishReusedSlot(t *testing.T) {
	const bank = 6
	k, c := newCtl(policy.BEMellow().WithWP())
	line := func(n int) uint64 { return lineForBank(bank, n) }
	offered := false
	c.SetEagerSource(func() (uint64, bool) {
		if offered {
			return 0, false
		}
		offered = true
		return line(1), true
	})

	e := advanceUntilCur(t, k, c, bank, line(1))
	stale := c.banks[bank].freeAt
	c.SubmitRead(line(2), k.Now()) // pauses the eager pulse
	if advanceUntilCur(t, k, c, bank, line(1)) != e || e.attempts != 2 {
		t.Fatalf("setup: eager write did not resume (attempts %d)", e.attempts)
	}
	c.SubmitRead(line(3), k.Now()) // pauses it again
	if c.counts.Pauses != 2 {
		t.Fatalf("setup: pauses = %d, want 2", c.counts.Pauses)
	}
	// The write-back supersedes the queued eager entry and takes its slot.
	c.SubmitWrite(line(1), k.Now())
	if w := c.writeQ.find(bank, line(1)); w != e {
		t.Fatal("setup: the write-back did not reuse the dropped eager write's slot")
	}
	w := advanceUntilCur(t, k, c, bank, line(1))
	checkNoEarlyCompletion(t, k, c, bank, w, stale)
	if c.counts.EagerDone != 0 {
		t.Errorf("eager done = %d, want 0 (the entry was dropped)", c.counts.EagerDone)
	}
}

// Reads are recycled once their data has arrived and their last holder
// released them, and never while a holder is left.
func TestReadSlotRecycledAfterLastRelease(t *testing.T) {
	k, c := newCtl(policy.Norm())
	r := c.SubmitRead(lineForBank(2, 1), 0)
	c.Retain(r)
	c.Release(r) // one holder left, data not yet arrived
	c.WaitRead(r)
	if s, _ := c.AuditArena(); s.Live != 1 {
		t.Fatalf("live = %d before the last release, want 1", s.Live)
	}
	c.Release(r)
	if s, err := c.AuditArena(); err != nil || s.Live != 0 {
		t.Fatalf("live = %d (err %v) after the last release, want 0", s.Live, err)
	}
	if c.SubmitRead(lineForBank(3, 1), k.Now()) != r {
		t.Error("the next read did not reuse the recycled slot")
	}
	// A read released before its data arrives is recycled on arrival.
	r2 := c.SubmitRead(lineForBank(4, 1), k.Now())
	c.Release(r2)
	c.Drain()
	k.AdvanceUntil(func() bool { return r2.done })
	if s, _ := c.AuditArena(); s.Live != 1 || s.Slots != 2 {
		t.Errorf("arena = %+v, want 2 slots with 1 live", s)
	}
}

func TestReleaseBelowZeroPanics(t *testing.T) {
	_, c := newCtl(policy.Norm())
	r := c.SubmitRead(lineForBank(1, 1), 0)
	c.WaitRead(r)
	c.Release(r)
	defer func() {
		if recover() == nil {
			t.Error("second Release of a single-holder read did not panic")
		}
	}()
	c.Release(r)
}

func TestAllocOfHeldFreeSlotPanics(t *testing.T) {
	_, c := newCtl(policy.Norm())
	r := c.SubmitRead(lineForBank(1, 1), 0)
	c.WaitRead(r)
	c.arena.release(r) // freed behind its holder's back
	if _, err := c.AuditArena(); err == nil {
		t.Error("audit missed a free slot that still has a holder")
	}
	defer func() {
		if recover() == nil {
			t.Error("alloc handed out a slot that still has holders")
		}
	}()
	c.arena.alloc()
}

func TestAuditArenaFindsDoubleFree(t *testing.T) {
	_, c := newCtl(policy.Norm())
	c.SubmitWrite(lineForBank(1, 1), 0)
	c.Drain()
	w := c.arena.at(0)
	c.arena.release(w)
	if _, err := c.AuditArena(); err == nil {
		t.Error("audit missed a slot on the free list twice")
	}
}
