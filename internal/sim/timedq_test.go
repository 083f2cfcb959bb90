package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// checkHeapInvariants verifies the 4-ary heap property over run heads, the
// index bookkeeping the in-place operations rely on, each run's circular
// links and tail, and the run invariant: two runs of one date never
// interleave in seq, and no run of the hint's date reaches above the hint
// run's head.
func checkHeapInvariants(t *testing.T, q *timedQueue) {
	t.Helper()
	type span struct{ lo, hi uint64 }
	spans := map[Time][]span{}
	n := 0
	hintSeen := q.hint == nil
	for i, head := range q.h {
		if head.index != i {
			t.Fatalf("head at slot %d has index %d", i, head.index)
		}
		if i > 0 {
			parent := (i - 1) / 4
			if entryLess(head, q.h[parent]) {
				t.Fatalf("heap violation: slot %d (%v,%d) < parent %d (%v,%d)",
					i, head.at, head.seq, parent, q.h[parent].at, q.h[parent].seq)
			}
		}
		x := head
		for {
			n++
			if x == q.hint {
				if x.next != head {
					t.Fatalf("hint (%v,%d) is not its run's tail", x.at, x.seq)
				}
				hintSeen = true
			}
			if x.next.prev != x {
				t.Fatalf("run (%v,%d): broken links after seq %d", head.at, head.seq, x.seq)
			}
			if x.next == head {
				break
			}
			x = x.next
			if x.index != inRun || x.at != head.at || x.seq <= x.prev.seq {
				t.Fatalf("run (%v,%d): member (%v,%d) index %d out of place",
					head.at, head.seq, x.at, x.seq, x.index)
			}
		}
		if head.prev != x {
			t.Fatalf("run (%v,%d): head.prev is not the tail", head.at, head.seq)
		}
		spans[head.at] = append(spans[head.at], span{head.seq, x.seq})
	}
	if n != q.len() {
		t.Fatalf("runs hold %d entries, len() = %d", n, q.len())
	}
	if !hintSeen {
		t.Fatal("hint is not a queued run tail")
	}
	for at, ss := range spans {
		sort.Slice(ss, func(i, j int) bool { return ss[i].lo < ss[j].lo })
		for i := 1; i < len(ss); i++ {
			if ss[i-1].hi > ss[i].lo {
				t.Fatalf("runs at %v interleave: [%d,%d] and [%d,%d]",
					at, ss[i-1].lo, ss[i-1].hi, ss[i].lo, ss[i].hi)
			}
		}
		if q.hint != nil && q.hint.at == at && ss[len(ss)-1].hi != q.hint.seq {
			t.Fatalf("a run at %v reaches above the hint run", at)
		}
	}
}

// oracle is a plain sorted-slice model of the queue.
type oracle []*timedEntry

func (o oracle) sorted() []*timedEntry {
	s := append([]*timedEntry(nil), o...)
	sort.SliceStable(s, func(i, j int) bool { return entryLess(s[i], s[j]) })
	return s
}

func (o *oracle) delete(te *timedEntry) {
	for i, e := range *o {
		if e == te {
			*o = append((*o)[:i], (*o)[i+1:]...)
			return
		}
	}
}

// TestTimedQueueProperty drives random push/pop/remove/reschedule sequences
// against the oracle, checking peek, pop order (including the (at, seq)
// FIFO tie-break) and structural invariants after every step. Some entries
// draw their seq at one step and are pushed at a later one, with fresh
// pushes in between, as an Event's elided notification is delivered; the
// later trials squeeze all dates into 2–4 values so those late pushes land
// among long same-date runs.
func TestTimedQueueProperty(t *testing.T) {
	for trial := int64(0); trial < 60; trial++ {
		rng := rand.New(rand.NewSource(trial))
		dates := 16
		if trial >= 30 {
			dates = 2 + int(trial%3)
		}
		var q timedQueue
		var o oracle
		var elided []*timedEntry
		var seq uint64
		newEntry := func() *timedEntry {
			seq++
			// A narrow date range forces plenty of seq tie-breaks.
			return &timedEntry{at: Time(rng.Intn(dates)), seq: seq, index: notQueued}
		}
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(12); {
			case op < 4: // push
				te := newEntry()
				q.push(te)
				o = append(o, te)
			case op < 5: // draw a seq now, push it later
				te := newEntry()
				if q.hint != nil && rng.Intn(2) == 0 {
					te.at = q.hint.at // inside the hint run's seq range
				}
				elided = append(elided, te)
			case op < 6: // deliver a held entry with its earlier seq
				if len(elided) == 0 {
					continue
				}
				i := rng.Intn(len(elided))
				if rng.Intn(2) == 0 {
					i = len(elided) - 1 // the newest, likeliest inside the hint run
				}
				te := elided[i]
				elided = append(elided[:i], elided[i+1:]...)
				q.push(te)
				o = append(o, te)
			case op < 8: // pop
				if q.len() == 0 {
					if q.peek() != nil {
						t.Fatal("peek on empty queue != nil")
					}
					continue
				}
				want := o.sorted()[0]
				got := q.pop()
				if got != want {
					t.Fatalf("trial %d step %d: pop = (%v,%d), oracle min (%v,%d)",
						trial, step, got.at, got.seq, want.at, want.seq)
				}
				if got.queued() {
					t.Fatalf("popped entry keeps index %d", got.index)
				}
				o.delete(got)
			case op < 10: // remove a random live entry (in-place cancel)
				if len(o) == 0 {
					// Removing a non-queued entry must be a no-op.
					q.remove(&timedEntry{index: notQueued})
					continue
				}
				te := o[rng.Intn(len(o))]
				if q.hint != nil && rng.Intn(3) == 0 {
					te = q.hint // truncate the hint run
				}
				q.remove(te)
				if te.queued() {
					t.Fatalf("removed entry keeps index %d", te.index)
				}
				q.remove(te) // second remove: no-op
				o.delete(te)
			default: // reschedule a random live entry under a fresh seq
				if len(o) == 0 {
					continue
				}
				te := o[rng.Intn(len(o))]
				q.remove(te)
				seq++
				te.at = Time(rng.Intn(dates))
				te.seq = seq
				q.push(te)
			}
			checkHeapInvariants(t, &q)
			if q.len() != len(o) {
				t.Fatalf("trial %d step %d: len %d != oracle %d", trial, step, q.len(), len(o))
			}
			if q.len() > 0 {
				want := o.sorted()[0]
				if got := q.peek(); got != want {
					t.Fatalf("trial %d step %d: peek = (%v,%d), oracle min (%v,%d)",
						trial, step, got.at, got.seq, want.at, want.seq)
				}
			}
		}
		// Drain: the queue must yield exactly the oracle's sorted order.
		want := o.sorted()
		for i, w := range want {
			got := q.pop()
			if got != w {
				t.Fatalf("trial %d drain %d: pop = (%v,%d), want (%v,%d)",
					trial, i, got.at, got.seq, w.at, w.seq)
			}
		}
		if q.len() != 0 || q.peek() != nil {
			t.Fatalf("trial %d: queue not empty after drain", trial)
		}
	}
}

// TestTimedQueueTruncatedHintRun pins the open-above rule for the hint
// run: after the hint run [10, 12] at date 1 loses its tail, an elided
// seq 11 must still join it, or the fresh 13 that follows would be
// appended behind 10 while 11 sits in a run of its own, and the two runs
// would interleave.
func TestTimedQueueTruncatedHintRun(t *testing.T) {
	var q timedQueue
	entry := func(at Time, seq uint64) *timedEntry {
		return &timedEntry{at: at, seq: seq, index: notQueued}
	}
	q.push(entry(1, 5))
	q.push(entry(1, 6))
	q.push(entry(2, 7))
	q.push(entry(1, 10))
	q.push(entry(1, 12)) // seq 11 was drawn and elided meanwhile
	q.remove(q.hint)     // drop 12: the hint run is [10]
	q.push(entry(1, 11)) // the elided notification is delivered
	q.push(entry(1, 13))
	checkHeapInvariants(t, &q)
	var got []uint64
	for q.len() > 0 {
		got = append(got, q.pop().seq)
	}
	want := []uint64{5, 6, 10, 11, 13, 7}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

// TestScheduleEntryReschedulesInPlace covers the kernel-level primitive: an
// already-queued entry moves instead of being duplicated, and gets a fresh
// sequence number (a reschedule is a new notification for tie-breaks).
func TestScheduleEntryReschedulesInPlace(t *testing.T) {
	k := NewKernel("t")
	a := &timedEntry{index: notQueued}
	b := &timedEntry{index: notQueued}
	k.scheduleEntry(a, 50*NS)
	k.scheduleEntry(b, 40*NS)
	if got := k.timed.peek(); got != b {
		t.Fatalf("peek = %v, want b@40ns", got.at)
	}
	k.scheduleEntry(a, 10*NS) // in place, ahead of b
	if k.timed.len() != 2 {
		t.Fatalf("len = %d after reschedule, want 2", k.timed.len())
	}
	if got := k.timed.peek(); got != a || got.at != 10*NS {
		t.Fatalf("peek after reschedule = %v@%v, want a@10ns", got, got.at)
	}
	k.scheduleEntry(a, 40*NS) // same date as b, but later seq: b first
	if got := k.timed.pop(); got != b {
		t.Fatal("same-date tie-break: rescheduled entry must fire after b")
	}
	if got := k.timed.pop(); got != a {
		t.Fatal("rescheduled entry lost")
	}
}

// BenchmarkTimedFanout is the cycle-accurate shape: 16 methods re-arm
// NextTrigger(NS) on one date, so every op (one cycle) queues and pops a
// 16-entry same-date run.
func BenchmarkTimedFanout(b *testing.B) {
	k := NewKernel("fanout")
	for i := 0; i < 16; i++ {
		k.Method(fmt.Sprintf("m%d", i), func(p *Process) { p.NextTrigger(NS) })
	}
	var end Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		end += NS
		k.Run(end)
	}
	k.Shutdown()
}

// BenchmarkTimedSpread is the opposite shape: 16 threads on 16 distinct
// dates, one entry per date, so every op (16 ns) pushes and pops 16 lone
// run heads through the heap.
func BenchmarkTimedSpread(b *testing.B) {
	k := NewKernel("spread")
	for i := 0; i < 16; i++ {
		phase := Time(i) * NS
		k.Thread(fmt.Sprintf("t%d", i), func(p *Process) {
			p.Wait(phase + NS)
			for {
				p.Wait(16 * NS)
			}
		})
	}
	var end Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		end += 16 * NS
		k.Run(end)
	}
	k.Shutdown()
}
