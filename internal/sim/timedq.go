package sim

// The timed-notification queue is the kernel's hottest data structure:
// every Wait, Sync, delayed notification and NextTrigger passes through it.
// It is a 4-ary heap of same-date runs: the heap holds only run heads,
// ordered by (at, seq), and each head carries the other queued entries of
// its date, in seq order, on intrusive circular prev/next links. No
// container/heap (pushes and pops move typed pointers instead of boxing
// through `any`), no map, and no entry is ever allocated on a hot path:
// each Process and each Event embeds its single reusable entry (a process
// has at most one pending wakeup or trigger, an event at most one pending
// timed notification).
//
// Runs are what make a cycle-accurate model cheap: a mesh of method
// routers re-arming NextTrigger(cycle) queues a dozen entries on the same
// date every cycle, and each of them then costs a list append and an
// unsifted pop instead of a heap sift. A lone entry costs what a plain
// heap costs.
//
// The invariant behind this is that two runs of one date never interleave
// in seq. scheduleEntry always hands out the globally largest seq, so a
// fresh entry dated like the newest run's tail (q.hint) is appended to that
// run and any other fresh entry starts a run of its own. The one push with
// an older seq is an Event's lazy delivery of an elided notification; it
// joins the run of its date whose seq range contains it, where the hint
// run's range is open above (later fresh entries of that date join it
// too). Popping or removing a head whose run continues therefore puts the
// successor in the head's heap slot without a sift: every other run of
// that date lies wholly before or wholly after it.
//
// A 4-ary layout halves the tree depth of a binary heap; sift-down does a
// few more comparisons per level but they hit one cache line, which is the
// better trade for the push/pop mix the kernel generates.

// Sentinel timedEntry.index values for entries outside the heap array.
const (
	notQueued = -1 // not in the timed queue
	inRun     = -2 // queued behind its run's head
)

// timedEntry is a pending timed activity: either a process activation
// (proc != nil — a thread wakeup, a thread wait-timeout, or a method's
// timed dynamic trigger) or an event notification (ev != nil). Entries are
// embedded in their owning Process or Event and reused across rounds; the
// discriminating pointer is set once at initialization.
type timedEntry struct {
	at        Time
	seq       uint64
	proc      *Process
	methodGen uint64 // trigger generation for method proc entries
	waitGen   uint64 // wait sequence for thread timeout entries
	evWait    bool   // entry is a WaitEventTimeout timeout
	ev        *Event
	index     int         // heap slot of a run head, else inRun or notQueued
	prev      *timedEntry // circular same-date run links; a head's prev
	next      *timedEntry // is its run's tail
}

// queued reports whether the entry is currently in the timed queue.
func (te *timedEntry) queued() bool { return te.index != notQueued }

// timedQueue is a 4-ary min-heap of same-date runs ordered by (at, seq),
// so same-date activities fire in schedule order (the determinism the
// §IV-A validation relies on).
type timedQueue struct {
	h    []*timedEntry // run heads
	hint *timedEntry   // tail of the run the newest fresh entry joined, nil once that run is gone
	last uint64        // largest seq ever pushed
	n    int           // queued entries
}

func entryLess(a, b *timedEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *timedQueue) len() int { return q.n }

// peek returns the earliest entry without removing it, or nil.
func (q *timedQueue) peek() *timedEntry {
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0]
}

// push inserts te, which must not already be queued. A seq above every
// seq pushed before is fresh; any other is an elided notification's
// earlier seq.
func (q *timedQueue) push(te *timedEntry) {
	q.n++
	if te.seq > q.last {
		q.last = te.seq
		if t := q.hint; t != nil && t.at == te.at {
			linkAfter(t, te)
			q.hint = te
			return
		}
		q.hint = te
	} else if head := q.runHolding(te, 0); head != nil {
		x := head.prev
		for x.seq > te.seq {
			x = x.prev
		}
		linkAfter(x, te)
		if x == q.hint {
			q.hint = te
		}
		return
	}
	te.prev, te.next = te, te
	te.index = len(q.h)
	q.h = append(q.h, te)
	q.siftUp(te.index)
}

// linkAfter queues te in x's run, right behind x.
func linkAfter(x, te *timedEntry) {
	te.index = inRun
	te.prev, te.next = x, x.next
	x.next.prev = te
	x.next = te
}

// runHolding returns the head of the run that an entry with an earlier
// seq must join: the run of te's date whose seq range contains te.seq,
// the hint run's range being open above. It searches the subtree at slot
// i, pruning every head that does not sort before te; nil means te starts
// a run of its own.
func (q *timedQueue) runHolding(te *timedEntry, i int) *timedEntry {
	if i >= len(q.h) || !entryLess(q.h[i], te) {
		return nil
	}
	if head := q.h[i]; head.at == te.at && (te.seq < head.prev.seq || head.prev == q.hint) {
		return head
	}
	for c := 4*i + 1; c <= 4*i+4; c++ {
		if head := q.runHolding(te, c); head != nil {
			return head
		}
	}
	return nil
}

// pop removes and returns the earliest entry. The queue must be non-empty.
// This is unlink specialised to the head at slot 0, which is never the
// hint unless it is alone.
func (q *timedQueue) pop() *timedEntry {
	te := q.h[0]
	q.n--
	if next := te.next; next != te {
		tail := te.prev
		tail.next, next.prev = next, tail
		next.index = 0
		q.h[0] = next
	} else {
		if q.hint == te {
			q.hint = nil
		}
		h := q.h
		last := len(h) - 1
		h[0] = h[last]
		h[0].index = 0
		h[last] = nil
		q.h = h[:last]
		if last > 0 {
			q.siftDown(0)
		}
	}
	te.index = notQueued
	return te
}

// remove deletes te from the queue in place; a no-op if it is not queued.
func (q *timedQueue) remove(te *timedEntry) {
	if te.queued() {
		q.unlink(te)
	}
}

// unlink takes the queued entry te out of its run. A head with a
// successor hands it its heap slot as is; a lone head leaves the heap.
func (q *timedQueue) unlink(te *timedEntry) {
	q.n--
	prev, next := te.prev, te.next
	if q.hint == te {
		q.hint = prev
		if prev == te {
			q.hint = nil
		}
	}
	if next != te {
		prev.next, next.prev = next, prev
		if i := te.index; i >= 0 {
			next.index = i
			q.h[i] = next
		}
	} else {
		q.deleteSlot(te.index)
	}
	te.index = notQueued
}

// deleteSlot removes the head at heap slot i, restoring the heap order.
func (q *timedQueue) deleteSlot(i int) {
	h := q.h
	last := len(h) - 1
	if i != last {
		h[i] = h[last]
		h[i].index = i
	}
	h[last] = nil // drop the reference so the slot doesn't pin the entry
	q.h = h[:last]
	if i == last {
		return
	}
	if i > 0 && entryLess(q.h[i], q.h[(i-1)/4]) {
		q.siftUp(i)
	} else {
		q.siftDown(i)
	}
}

func (q *timedQueue) siftUp(i int) {
	h := q.h
	te := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !entryLess(te, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].index = i
		i = parent
	}
	h[i] = te
	te.index = i
}

func (q *timedQueue) siftDown(i int) {
	h := q.h
	n := len(h)
	te := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if entryLess(h[c], h[min]) {
				min = c
			}
		}
		if !entryLess(h[min], te) {
			break
		}
		h[i] = h[min]
		h[i].index = i
		i = min
	}
	h[i] = te
	te.index = i
}

// scheduleEntry (re)schedules te at absolute date at under a fresh sequence
// number, first dropping whatever it was scheduled for if it is still
// queued (including a stale trigger or timeout left behind by an earlier
// round). This is the only scheduling primitive; it never allocates.
func (k *Kernel) scheduleEntry(te *timedEntry, at Time) {
	k.timed.remove(te)
	k.timedSeq++
	te.at = at
	te.seq = k.timedSeq
	k.timed.push(te)
}
