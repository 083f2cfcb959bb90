package core

import (
	"fmt"

	"repro/internal/sim"
)

// end is the one implementation of the §III channel: the write and read
// paths over per-cell insertion and freeing dates (§III-A), the two-test
// external view with delayed events (§III-B) and the dated monitor
// (§III-C); its bulk paths are in burst.go.
//
// A SmartFIFO is one end whose writes and reads meet in its ring. A
// ShardedFIFO bridge is two ends with bridge set, one per kernel: the
// writer end's ring is the credit window (which cells are busy, and the
// freeing date of each free cell), the reader end's ring holds the
// delivered data with their insertion dates. A bridge write stages its
// datum in the outbox and a bridge read stages its freeing date as a
// credit (stage and credit, sharded.go); the exchange moves both across
// and wakes the peer end. An end only holds the events of the sides its
// kernel owns.
type end[T any] struct {
	k    *sim.Kernel
	name string

	cells ring[T]

	// Internal blocking events: a parked (synchronized) writer waits on
	// cellFreed, a parked reader on cellFilled.
	cellFreed  *sim.Event
	cellFilled *sim.Event

	// External events for the non-blocking interface (§III-B). Their
	// notifications are delayed to the date the external state actually
	// changes (insertion/freeing date), not the internal-change date.
	notEmpty *sim.Event
	notFull  *sim.Event

	// Access-discipline state: local dates must not decrease on a side.
	lastWriteDate sim.Time
	lastReadDate  sim.Time

	stats  Stats
	fault  Fault
	policy BlockPolicy

	// Bridge-only state. outData/outIns are the writes staged since the
	// last exchange, struct-of-arrays so it can move them with copy;
	// pendingFrees are the freeing dates staged since then.
	bridge       bool
	outData      []T
	outIns       []sim.Time
	pendingFrees []sim.Time
	// writer/reader is the side's sole accessing process (nil before the
	// first access); multiWriter/multiReader latches once a second
	// process accessed it, disabling the frontier refinements that rely
	// on one process's local date.
	writer, reader           *sim.Process
	multiWriter, multiReader bool
	// retryAt is the reader's local date while it is blocked on an empty
	// end: the date at which the next pop (and hence the next freeing)
	// can happen, the freeing-date half of the bridge's lookahead.
	retryAt sim.Time
}

// newEnd returns an end of depth cells on kernel k, without events: the
// constructor sets those of the sides k owns.
func newEnd[T any](k *sim.Kernel, name string, depth int, bridge bool) end[T] {
	if depth <= 0 {
		panic(fmt.Sprintf("core: %s: non-positive depth %d", name, depth))
	}
	return end[T]{k: k, name: name, cells: newRing[T](depth), bridge: bridge}
}

// Name returns the channel name.
func (e *end[T]) Name() string { return e.name }

// Depth returns the capacity in cells.
func (e *end[T]) Depth() int { return e.cells.depth() }

// Kernel returns the owning kernel.
func (e *end[T]) Kernel() *sim.Kernel { return e.k }

// Stats returns a copy of the activity counters.
func (e *end[T]) Stats() Stats { return e.stats }

// NotEmpty is the external readable-event (§III-B): it is notified at the
// date the FIFO becomes externally non-empty, i.e. at the *insertion date*
// of the first available datum, not at the (possibly earlier) global date
// of the internal state change.
func (e *end[T]) NotEmpty() *sim.Event { return e.notEmpty }

// NotFull is the external writable-event, notified at the freeing date of
// the first available cell.
func (e *end[T]) NotFull() *sim.Event { return e.notFull }

// caller returns the process running the access op, and panics if there
// is none.
func (e *end[T]) caller(op string) *sim.Process {
	p := e.k.Current()
	if p == nil {
		e.outsideProcess(op)
	}
	return p
}

// checkOrder enforces the §III requirement that two successive accesses on
// the same side cannot have decreasing local dates.
func (e *end[T]) checkOrder(p *sim.Process, last *sim.Time, side string) {
	t := p.LocalTime()
	if t < *last {
		e.decreasingDate(p, side, t, *last)
	}
	*last = t
}

// outsideProcess panics: op was called with no process running. The
// panics are out of line so that the access paths carry only their tests.
//
//go:noinline
func (e *end[T]) outsideProcess(op string) {
	panic(fmt.Sprintf("core: %s: %s outside a process", e.name, op))
}

// decreasingDate panics: p accessed the side at local date t, before the
// side's last access at last.
//
//go:noinline
func (e *end[T]) decreasingDate(p *sim.Process, side string, t, last sim.Time) {
	panic(fmt.Sprintf(
		"core: %s: %s access by %q at local date %v after an access at %v; "+
			"each side needs non-decreasing dates (add an Arbiter if several processes share a side)",
		e.name, side, p.Name(), t, last))
}

// Write appends v (§III-A). If every cell is internally busy the calling
// thread synchronizes and parks (one context switch). Otherwise, if the
// first free cell's freeing date is in the caller's local future, the
// caller's local clock advances to it — the real FIFO had no free cell
// before that date — and the write costs no context switch at all.
//
// Write reads the caller's local date once and carries it in local. Only
// two things change it: a park on cellFreed, after which the date is
// restored but no earlier than the global date of the wake, and the
// advance to the freeing date. The side's last write date is stored
// before the blocking loop, since a bridge's frontier reads it while the
// writer is parked.
func (e *end[T]) Write(v T) {
	p := e.k.Current()
	if p == nil {
		e.outsideProcess("Write")
	}
	local := p.LocalTime()
	if local < e.lastWriteDate {
		e.decreasingDate(p, "write", local, e.lastWriteDate)
	}
	e.lastWriteDate = local
	r := &e.cells
	for r.nBusy == len(r.ins) {
		e.stats.WriterBlocks++
		if e.policy == SyncThenWait && !p.Synchronized() {
			// Let the global date catch up first; a reader may
			// free a cell in the meantime, so re-check. Sync
			// returns at the local date it was called at.
			p.Sync()
			continue
		}
		// WaitOnly keeps the caller decoupled across the park; its
		// absolute local date must survive the global time that
		// passes while parked.
		p.WaitEvent(e.cellFreed)
		p.SetLocalDate(local)
		local = p.LocalTime()
	}
	q := r.firstFree
	if fd := r.free[q]; fd > local && e.fault != FaultNoWriterAdvance {
		e.stats.WriterAdvances++
		p.AdvanceLocalTo(fd)
		local = fd
	}
	wasAllFree := r.nBusy == 0
	r.ins[q] = local
	if e.fault == FaultInsertDateNow {
		r.ins[q] = e.k.Now()
	}
	nq := q + 1
	if nq == len(r.ins) {
		nq = 0
	}
	r.firstFree = nq
	r.nBusy++
	e.stats.Writes++
	e.lastWriteDate = local
	if e.bridge {
		e.stage(p, []T{v}, q)
	} else {
		r.data[q] = v
		// Wake a blocked reader, if any. External view (§III-B): the
		// FIFO becomes non-empty at the insertion date.
		e.cellFilled.NotifyDelta()
		if wasAllFree {
			e.notify(e.notEmpty, r.ins[q])
		}
	}
	// If the *next* free cell's freeing date is in the future, a
	// synchronized writer still sees the FIFO as full until that date.
	if r.nBusy < len(r.ins) {
		if fd := r.free[nq]; fd > e.k.Now() {
			e.notify(e.notFull, fd)
		}
	}
}

// Read pops the oldest value (§III-A), symmetric to Write: park only when
// internally empty; otherwise advance the reader's local clock to the
// datum's insertion date if that date is in the local future. Like Write
// it reads the local date once and stores the side's last read date
// before the blocking loop.
func (e *end[T]) Read() T {
	p := e.k.Current()
	if p == nil {
		e.outsideProcess("Read")
	}
	local := p.LocalTime()
	if local < e.lastReadDate {
		e.decreasingDate(p, "read", local, e.lastReadDate)
	}
	e.lastReadDate = local
	r := &e.cells
	for r.nBusy == 0 {
		e.stats.ReaderBlocks++
		// A bridge's frontier (readFloor) must see a blocked reader
		// and its retry date before it parks.
		e.noteReader(p)
		e.retryAt = max(e.retryAt, local)
		if e.policy == SyncThenWait && !p.Synchronized() {
			p.Sync()
			continue
		}
		p.WaitEvent(e.cellFilled)
		p.SetLocalDate(local)
		local = p.LocalTime()
	}
	q := r.firstBusy
	if id := r.ins[q]; id > local && e.fault != FaultNoReaderAdvance {
		e.stats.ReaderAdvances++
		p.AdvanceLocalTo(id)
		local = id
	}
	wasAllBusy := r.nBusy == len(r.ins)
	v := r.data[q]
	var zero T
	r.data[q] = zero
	r.free[q] = local
	nq := q + 1
	if nq == len(r.ins) {
		nq = 0
	}
	r.firstBusy = nq
	r.nBusy--
	e.stats.Reads++
	e.lastReadDate = local
	if e.bridge {
		e.credit(p, q, 1)
	} else {
		// Wake a blocked writer, if any. External view: the FIFO
		// becomes non-full at the freeing date.
		e.cellFreed.NotifyDelta()
		if wasAllBusy {
			e.notify(e.notFull, local)
		}
	}
	// §III-B, notification case 2: the next datum exists internally but
	// becomes externally visible only at its (future) insertion date.
	if r.nBusy > 0 {
		if id := r.ins[nq]; id > e.k.Now() {
			e.notify(e.notEmpty, id)
		}
	}
	return v
}

// notify schedules ev at absolute date at, or at the next delta cycle if
// at is not in the future. Unlike plain sc_event earliest-wins semantics,
// the pending notification is replaced: the FIFO recomputes the
// authoritative next-availability date at every state change, and an
// earlier stale notification would be both spurious and — worse — would
// swallow the recomputed one, stranding event-driven consumers.
//
// Replacement happens through sim.Event.NotifyAtReplace, which elides all
// timed-queue traffic while the event has no subscribers (the pure Kahn
// case: blocking Read/Write only). The authoritative date is recorded and
// turned into a real notification lazily, the moment a waiter, static
// method or dynamic trigger attaches, so event-driven consumers observe
// exactly the dates they always did while the common case pays nothing.
func (e *end[T]) notify(ev *sim.Event, at sim.Time) {
	if e.fault == FaultNotifyNow {
		ev.CancelNotify()
		ev.NotifyDelta()
		return
	}
	ev.NotifyAtReplace(at)
}

// IsEmpty implements the §III-B two-test rule, evaluated at the caller's
// local date t: the FIFO is externally empty iff either all cells are
// internally free, or the insertion date of the first busy cell is after
// t. It runs in constant time ("two tests instead of one for a regular
// FIFO"). It must be called from the reader-side process or a synchronized
// process; under that discipline the two tests are exact.
func (e *end[T]) IsEmpty() bool {
	p := e.caller("IsEmpty")
	if e.cells.nBusy == 0 {
		return true
	}
	if e.fault == FaultEmptyIgnoresDates {
		return false
	}
	return e.cells.ins[e.cells.firstBusy] > p.LocalTime()
}

// IsFull is the symmetric two-test rule for the writer side: externally
// full iff all cells are internally busy, or the freeing date of the first
// free cell is after the caller's local date.
func (e *end[T]) IsFull() bool {
	p := e.caller("IsFull")
	if e.cells.nBusy == e.cells.depth() {
		return true
	}
	return e.cells.free[e.cells.firstFree] > p.LocalTime()
}

// TryRead pops the oldest value if the FIFO is externally non-empty at the
// caller's local date. Unlike Read it never blocks, so it is safe from
// method processes (§III-B usage pattern: if IsEmpty, NextTrigger on
// NotEmpty, else TryRead).
func (e *end[T]) TryRead() (T, bool) {
	if e.IsEmpty() {
		var zero T
		return zero, false
	}
	return e.Read(), true
}

// TryWrite appends v if the FIFO is externally non-full at the caller's
// local date. Never blocks; safe from method processes.
func (e *end[T]) TryWrite(v T) bool {
	if e.IsFull() {
		return false
	}
	e.Write(v)
	return true
}

// Size implements the monitor interface (§III-C): the number of cells the
// *real* FIFO holds at the caller's date, as far as this end's ring can
// know. The caller is synchronized first (thread callers only; method
// callers are synchronized by construction), then every cell is
// interpreted with the four-rule table of §III-C (ring.datedSize).
//
// Size is O(depth) — slower than a regular FIFO's counter, which is fine
// for the low-rate monitor use the paper targets (a few accesses per
// second).
func (e *end[T]) Size() int {
	p := e.caller("Size")
	if !p.IsMethod() {
		p.Sync()
	}
	if e.fault == FaultSizeIgnoresDates {
		return e.cells.nBusy
	}
	return e.cells.datedSize(p.LocalTime())
}
