package core

import (
	"sync"

	"repro/internal/fifo"
	"repro/internal/sim"
)

// ShardedFIFO is a Smart FIFO whose writer and reader sides live on
// different kernels (simulation shards). It is the cross-shard bridge of
// the conservative parallel scheduler (internal/par): the same cell
// timestamps that let a single-kernel Smart FIFO advance a blocked
// process's local clock also tell a shard coordinator how far the reading
// shard may safely run ahead — the insertion dates are the lookahead, so no
// null messages are needed.
//
// The bridge is two ends (end.go), one per kernel, each running the very
// code of SmartFIFO over its own mirror of the cell ring:
//
//   - the writer end tracks which cells are busy and the freeing date of
//     each free cell (its credit window). Write fills a cell exactly like
//     SmartFIFO.Write — advancing the writer's local clock to the cell's
//     freeing date, stamping the insertion date — and stages the datum in
//     an outbox;
//   - the reader end tracks delivered data with insertion dates. Read
//     pops exactly like SmartFIFO.Read — advancing the reader's local
//     clock to the insertion date — and stages the freeing date for the
//     writer.
//
// The exchange halves (FlushWriterSide on the writer shard's worker,
// FlushReaderSide on the reader's, each between its own kernel's Steps)
// move the outbox into the reader's cells and the freeing dates into the
// writer's credit window through a locked mailbox, waking blocked endpoint
// processes; Flush does both at once at the coordinator's all-parked
// rendezvous. Because deliveries wait for an exchange, the endpoints'
// external views lag the real state — but every date carried is exact, so
// blocking Read/Write produce local dates identical to a single-kernel
// SmartFIFO (pinned by TestShardedFIFOMatchesSmart and the 1-vs-N-shard
// trace equivalence tests). The two-test IsEmpty/IsFull rules and the
// dated Size monitor are evaluated per endpoint over that endpoint's
// mirror; they are exact for dates up to the bridge's frontier.
//
// Both endpoints offer the burst interface of burst.go: bulk runs over the
// credit window (writes) or the delivered cells (reads), with outbox
// staging and freeing-date credits batched as runs.
//
// Blocking always uses the SyncThenWait discipline (see BlockPolicy); the
// WaitOnly ablation is not offered across shards.
type ShardedFIFO[T any] struct {
	name string

	w ShardedWriter[T]
	r ShardedReader[T]
	x xfer[T]
}

// xfer is the cross-shard mailbox between the two endpoints: the only
// state both shards touch while their kernels run concurrently. Each
// side moves its staged batch in and the peer's batch out under mu at
// its own kernel safe points (between Steps), so endpoint internals
// never need locking. The published bounds let the reading shard derive
// its horizon the moment the writer publishes one, without a global
// rendezvous.
type xfer[T any] struct {
	mu sync.Mutex

	// data/ins are delivered-but-unimported writes (writer → reader);
	// frees are returned-but-unimported credits (reader → writer).
	data  []T
	ins   []sim.Time
	frees []sim.Time

	// base is the writer-published frontier base: a lower bound, over
	// writer-side state only, on the insertion date of anything the
	// writer stages after the publish. Monotone (the max of valid lower
	// bounds is a valid lower bound). blocked records whether the credit
	// window was full at publish time — the reader then completes the
	// bound with its own read floor (or the oldest outstanding credit).
	// term latches when the sole writer terminated: no future delivery.
	base    sim.Time
	blocked bool
	term    bool

	// rFloor is the reader-published pop floor (monotone): every future
	// credit carries a freeing date at or after it.
	rFloor sim.Time

	// traffic accumulates this bridge's cross-boundary activity (under
	// mu, on the flush paths only); m, captured at construction, is the
	// optional shared metrics sink (see metrics.go).
	traffic Traffic
	m       *BridgeMetrics
}

// ShardedWriter is the writer-side endpoint, owned by the writer kernel:
// the writer side of a bridge end. It implements fifo.WriteEnd.
type ShardedWriter[T any] struct {
	end end[T]
}

// ShardedReader is the reader-side endpoint, owned by the reader kernel:
// the reader side of a bridge end. It implements fifo.ReadEnd.
type ShardedReader[T any] struct {
	end end[T]

	// effFrontier caches the highest effective inbound frontier this
	// endpoint has derived (FlushReaderSide). Monotone: an old bound
	// stays valid because the set of future deliveries only shrinks.
	// Touched only by the reader shard's worker.
	effFrontier sim.Time
}

// NewSharded creates a sharded Smart FIFO with the given depth, its writer
// side on kernel wk and its reader side on kernel rk. The two kernels may
// be the same (a degenerate bridge, still moving data only through
// exchanges), which is how a sharded model collapses onto one kernel for
// 1-shard validation runs.
func NewSharded[T any](wk, rk *sim.Kernel, name string, depth int) *ShardedFIFO[T] {
	f := &ShardedFIFO[T]{name: name}
	f.x.m = defaultBridgeMetrics.Load()
	w, r := &f.w.end, &f.r.end
	*w = newEnd[T](wk, name, depth, true)
	w.cellFreed = sim.NewEvent(wk, name+".w.cell_freed")
	w.notFull = sim.NewEvent(wk, name+".w.not_full")
	*r = newEnd[T](rk, name, depth, true)
	r.cellFilled = sim.NewEvent(rk, name+".r.cell_filled")
	r.notEmpty = sim.NewEvent(rk, name+".r.not_empty")
	return f
}

// Name returns the channel name.
func (f *ShardedFIFO[T]) Name() string { return f.name }

// Depth returns the capacity in cells.
func (f *ShardedFIFO[T]) Depth() int { return f.w.end.Depth() }

// Writer returns the writer-side endpoint, to be used only by processes of
// the writer kernel.
func (f *ShardedFIFO[T]) Writer() *ShardedWriter[T] { return &f.w }

// Reader returns the reader-side endpoint, to be used only by processes of
// the reader kernel.
func (f *ShardedFIFO[T]) Reader() *ShardedReader[T] { return &f.r }

// WriterKernel returns the kernel owning the writer side.
func (f *ShardedFIFO[T]) WriterKernel() *sim.Kernel { return f.w.end.k }

// ReaderKernel returns the kernel owning the reader side.
func (f *ShardedFIFO[T]) ReaderKernel() *sim.Kernel { return f.r.end.k }

// Stats merges both endpoints' counters. Call it only while neither kernel
// is running (after a run).
func (f *ShardedFIFO[T]) Stats() Stats {
	w, r := f.w.end.stats, f.r.end.stats
	return Stats{
		Writes:         w.Writes,
		Reads:          r.Reads,
		WriterBlocks:   w.WriterBlocks,
		ReaderBlocks:   r.ReaderBlocks,
		WriterAdvances: w.WriterAdvances,
		ReaderAdvances: r.ReaderAdvances,
	}
}

// Flush moves everything staged on either side across the shard boundary
// — outbox and mailbox data to the reader, pending and mailbox credits to
// the writer — and reports whether anything moved. It must be called only
// at a global safe point (the coordinator's all-parked rendezvous), while
// neither kernel is running. Both directions move as bulk ring
// copies (≤ 2 contiguous segments each). It also refreshes the published
// bounds, since a global safe point is trivially a safe point for each
// side.
func (f *ShardedFIFO[T]) Flush() bool {
	f.x.mu.Lock()
	defer f.x.mu.Unlock()
	a := f.stageOutboxLocked()
	b := f.deliverDataLocked()
	c := f.stageFreesLocked()
	d := f.deliverFreesLocked()
	f.publishWriterBoundsLocked()
	f.publishReaderFloorLocked()
	return a || b || c || d
}

// stageOutboxLocked moves the writer outbox into the mailbox. Writer-side
// safe point; x.mu held.
func (f *ShardedFIFO[T]) stageOutboxLocked() bool {
	w, x := &f.w.end, &f.x
	if len(w.outData) == 0 {
		return false
	}
	x.data = append(x.data, w.outData...)
	x.ins = append(x.ins, w.outIns...)
	n := uint64(len(w.outData))
	x.traffic.WordsCrossed += n
	x.traffic.Flushes++
	if x.m != nil {
		x.m.WordsCrossed.Add(n)
		x.m.FlushBatchWords.Observe(float64(n))
	}
	clear(w.outData) // release payload references to the GC
	w.outData = w.outData[:0]
	w.outIns = w.outIns[:0]
	return true
}

// deliverDataLocked moves mailbox data into the reader's cells, waking a
// blocked reader and refreshing the external view (the FIFO becomes
// non-empty at the insertion date of the first datum). Reader-side safe
// point; x.mu held.
func (f *ShardedFIFO[T]) deliverDataLocked() bool {
	x, r := &f.x, &f.r.end
	k := len(x.data)
	if k == 0 {
		return false
	}
	rc := &r.cells
	wasEmpty := rc.nBusy == 0
	q0 := rc.firstFree
	copyIn(rc.data, q0, x.data)
	copyIn(rc.ins, q0, x.ins)
	rc.firstFree = wrap(q0+k, rc.depth())
	rc.nBusy += k
	clear(x.data)
	x.data = x.data[:0]
	x.ins = x.ins[:0]
	r.cellFilled.NotifyDelta()
	if wasEmpty {
		r.notEmpty.NotifyAtReplace(rc.ins[rc.firstBusy])
	}
	return true
}

// stageFreesLocked moves the reader's pending freeing dates into the
// mailbox. Reader-side safe point; x.mu held.
func (f *ShardedFIFO[T]) stageFreesLocked() bool {
	r, x := &f.r.end, &f.x
	if len(r.pendingFrees) == 0 {
		return false
	}
	x.frees = append(x.frees, r.pendingFrees...)
	r.pendingFrees = r.pendingFrees[:0]
	return true
}

// deliverFreesLocked moves mailbox credits into the writer's window,
// waking a blocked writer (the FIFO becomes non-full at the freeing date
// of the first available cell). Writer-side safe point; x.mu held.
func (f *ShardedFIFO[T]) deliverFreesLocked() bool {
	x, w := &f.x, &f.w.end
	k := len(x.frees)
	if k == 0 {
		return false
	}
	wc := &w.cells
	wasFull := wc.nBusy == len(wc.ins)
	q0 := wc.firstBusy
	copyIn(wc.free, q0, x.frees)
	wc.firstBusy = wrap(q0+k, wc.depth())
	wc.nBusy -= k
	x.traffic.CreditReturns += uint64(k)
	if x.m != nil {
		x.m.CreditReturns.Add(uint64(k))
	}
	x.frees = x.frees[:0]
	w.cellFreed.NotifyDelta()
	if wasFull {
		w.notFull.NotifyAtReplace(wc.free[wc.firstFree])
	}
	return true
}

// publishWriterBoundsLocked recomputes the writer-side frontier terms and
// publishes them into the mailbox, monotonically. It must only run with
// the outbox empty (already staged): the base covers future writes, and a
// withheld outbox entry could be older than it. Writer-side safe point;
// x.mu held. Reports whether the published state changed.
func (f *ShardedFIFO[T]) publishWriterBoundsLocked() bool {
	w, x := &f.w.end, &f.x
	wf := w.writeFloor()
	if wf == sim.TimeMax {
		if !x.term {
			x.term = true
			return true
		}
		return false
	}
	base := max(wf, w.k.Now())
	wc := &w.cells
	blocked := wc.nBusy == len(wc.ins)
	if !blocked {
		base = max(base, wc.free[wc.firstFree])
	}
	changed := false
	if base > x.base {
		x.base = base
		changed = true
	}
	if blocked != x.blocked {
		x.blocked = blocked
		changed = true
	}
	return changed
}

// publishReaderFloorLocked publishes the reader's pop floor, monotonically.
// Reader-side safe point; x.mu held. Reports whether the floor rose.
func (f *ShardedFIFO[T]) publishReaderFloorLocked() bool {
	r, x := &f.r.end, &f.x
	if rf := r.readFloor(); rf > x.rFloor {
		x.rFloor = rf
		return true
	}
	return false
}

// FlushWriterSide is the writer shard's half of an asynchronous exchange:
// stage the outbox into the mailbox, import pending credits, publish the
// frontier bounds, and return the write frontier bounding the shard's own
// clock. Call it only from the writer shard's worker at a kernel safe
// point (between Steps).
//
// deferData (fault injection) withholds the whole exchange: nothing is
// staged, imported, or published, so the previously published bounds —
// still valid, since they covered all deliveries future of their own
// publish — keep bounding the reader until a later exchange or a
// rendezvous Flush.
//
// The two publication flags grade what the reader shard can now observe:
// data means words were staged — the only writer-side publication that
// can make a reader process runnable — while bound means a frontier
// bound was raised, which matters only to a reader shard whose horizon
// is capping timed work it already holds.
func (f *ShardedFIFO[T]) FlushWriterSide(deferData bool) (writeFrontier sim.Time, data, bound bool) {
	x := &f.x
	x.mu.Lock()
	if !deferData {
		data = f.stageOutboxLocked()
		f.deliverFreesLocked()
		// Publish after the credit import so the base reflects the
		// freshest window state — and so "blocked" is always current
		// with respect to every credit published so far, which is what
		// lets the reader trust its own read floor when the mailbox
		// holds no credits.
		bound = f.publishWriterBoundsLocked()
	}
	rf := x.rFloor
	x.mu.Unlock()
	return max(f.w.end.writeFloor(), rf), data, bound
}

// FlushReaderSide is the reader shard's half of an asynchronous exchange:
// publish freed-cell credits and the pop floor, import delivered data,
// and derive the effective inbound frontier. Call it only from the reader
// shard's worker at a kernel safe point (between Steps).
//
// The returned frontier is the writer-published base completed with the
// reader-side half of the Smart-FIFO lookahead: when the writer was
// credit-blocked at publish time, the next insertion follows either the
// oldest credit it has not yet imported (the mailbox head) or, when every
// credit has been imported and none is staged here, the reader's own next
// pop. The value is monotone across calls.
//
// The publication flags grade what the writer shard can now observe:
// credit means freed cells crossed while the writer had published a full
// window — importing them is what makes a credit-parked writer process
// runnable again — while bound covers credits and floor raises that only
// refresh the writer's frontier arithmetic. A credit-parked writer always
// publishes blocked first (its worker exchanges after every Step, before
// parking), so staged frees against a non-blocked window are never a
// missed wake.
func (f *ShardedFIFO[T]) FlushReaderSide() (frontier sim.Time, credit, bound bool) {
	r, x := &f.r, &f.x
	staged := false
	x.mu.Lock()
	if f.stageFreesLocked() {
		staged = true
		bound = true
	}
	if f.publishReaderFloorLocked() {
		bound = true
	}
	credit = staged && x.blocked
	f.deliverDataLocked()
	front := x.base
	switch {
	case x.term:
		front = sim.TimeMax
	case x.blocked:
		if len(x.frees) > 0 {
			// Credits the writer has not imported: its next write lands
			// in the cell freed by the oldest of them.
			front = max(front, x.frees[0])
		} else {
			// No credit outstanding anywhere (the writer republishes
			// under the same lock whenever it imports), so the writer
			// stays parked until this side pops again.
			front = max(front, r.end.readFloor())
		}
	}
	x.mu.Unlock()
	r.effFrontier = max(r.effFrontier, front)
	return r.effFrontier, credit, bound
}

// Frontier returns a lower bound on the insertion dates of everything the
// bridge may still deliver: the reader's shard may safely simulate up to
// and including this date. Call it only at the coordinator's rendezvous,
// after Flush (an undelivered outbox entry could be older than the bound).
//
// The bound is the §III access discipline turned into lookahead — no null
// messages, just the cell timestamps:
//
//   - write dates on a side never decrease, so the last insertion date
//     bounds all future ones; the writer process's own local date (when a
//     single process owns the side) and its kernel's date tighten it;
//   - when the credit window has room, the next write lands in a known
//     cell and advances to that cell's freeing date;
//   - when the window is full, the writer is throttled by the reader
//     itself: the next insertion follows the reader's next pop, so the
//     reader's own read floor is the bound. This is what breaks the
//     classic conservative-deadlock cycle without null messages.
//
// A terminated writer can never deliver again — the frontier becomes
// sim.TimeMax and the reader runs unthrottled.
func (f *ShardedFIFO[T]) Frontier() sim.Time {
	w := &f.w.end
	front := max(w.writeFloor(), w.k.Now())
	if wc := &w.cells; wc.nBusy < len(wc.ins) {
		return max(front, wc.free[wc.firstFree])
	}
	return max(front, f.r.end.readFloor())
}

// WriteFrontier returns a lower bound on the resume date of any write
// that blocks (now or later) on exhausted credits: the writer's shard
// must not advance its kernel clock past this date, or a parked writer's
// restored local date would be clamped to the kernel clock
// (sim.Process.SetLocalDate cannot represent a local date in the global
// past) and the §III dates would drift. Call it only at the rendezvous,
// after Flush, like Frontier.
//
// A blocked write resumes at max(its restore date, the freeing date of
// the credit that wakes it), so the bound is the max of
//
//   - the reader's read floor — every future credit carries a freeing
//     date at or after the reader's next pop;
//   - the writer's write floor — any future park's restore date is at or
//     after the side's last write date and the sole writer's local date.
//
// A terminated writer can never park again — the bound is sim.TimeMax
// and the shard runs unthrottled.
func (f *ShardedFIFO[T]) WriteFrontier() sim.Time {
	return max(f.w.end.writeFloor(), f.r.end.readFloor())
}

// --- the bridge's hooks on an end ---

// stage is a bridge writer end's hand-over: it appends vals, just written
// to the cells from q0, and their insertion dates to the outbox for the
// next exchange, and notes the writing process. Out of line so the
// single-kernel write path stays small.
//
//go:noinline
func (e *end[T]) stage(p *sim.Process, vals []T, q0 int) {
	m := len(vals)
	// append(outData, vals...), with appendCells' single-entry fast path.
	e.outData = appendCells(e.outData, vals, 0, m)
	e.outIns = appendCells(e.outIns, e.cells.ins, q0, m)
	e.noteWriter(p)
}

// credit is a bridge reader end's hand-over: it stages the freeing dates
// of the m cells just popped from q0 for the next exchange, and notes the
// reading process. Out of line like stage.
//
//go:noinline
func (e *end[T]) credit(p *sim.Process, q0, m int) {
	e.pendingFrees = appendCells(e.pendingFrees, e.cells.free, q0, m)
	e.noteReader(p)
}

// noteWriter records the writing process for the frontier refinement.
func (e *end[T]) noteWriter(p *sim.Process) {
	if e.writer == nil {
		e.writer = p
	} else if e.writer != p {
		e.multiWriter = true
	}
}

// noteReader records the reading process for the frontier refinement.
func (e *end[T]) noteReader(p *sim.Process) {
	if e.reader == nil {
		e.reader = p
	} else if e.reader != p {
		e.multiReader = true
	}
}

// writeFloor is a lower bound on the date of a bridge writer end's next
// write: the side's last write date, raised to the sole writer's local
// date. It is sim.TimeMax once the sole writer has terminated, since no
// write can follow.
func (e *end[T]) writeFloor() sim.Time {
	if e.multiWriter || e.writer == nil {
		return e.lastWriteDate
	}
	if e.writer.Terminated() {
		return sim.TimeMax
	}
	return max(e.lastWriteDate, e.writer.LocalTime())
}

// readFloor is a lower bound on the date of a bridge reader end's next
// pop.
func (e *end[T]) readFloor() sim.Time {
	if !e.multiReader && e.retryAt > e.lastReadDate {
		return e.retryAt
	}
	return e.lastReadDate
}

// --- endpoints: each forwards one side of its end ---

// Name returns the channel name.
func (s *ShardedWriter[T]) Name() string { return s.end.name }

// Depth returns the capacity in cells.
func (s *ShardedWriter[T]) Depth() int { return s.end.Depth() }

// Kernel returns the kernel owning this endpoint.
func (s *ShardedWriter[T]) Kernel() *sim.Kernel { return s.end.k }

// Write appends v exactly like SmartFIFO.Write: if the credit window is
// exhausted the calling thread synchronizes and parks until an exchange
// returns freed cells; otherwise the caller's local clock advances to the
// freeing date of the cell it fills and the write costs no context switch.
func (s *ShardedWriter[T]) Write(v T) { s.end.Write(v) }

// WriteBurst is SmartFIFO.WriteBurst over the credit window (the burst
// contract of burst.go), staging the outbox in batches.
func (s *ShardedWriter[T]) WriteBurst(vals []T, per sim.Time) { s.end.WriteBurst(vals, per) }

// TryWriteBurst writes up to len(vals) externally acceptable words without
// blocking (burst contract) and returns the number written.
func (s *ShardedWriter[T]) TryWriteBurst(vals []T, per sim.Time) int {
	return s.end.TryWriteBurst(vals, per)
}

// IsFull is the two-test writer rule evaluated over the credit window.
func (s *ShardedWriter[T]) IsFull() bool { return s.end.IsFull() }

// TryWrite appends v if the endpoint is externally non-full at the
// caller's local date. Never blocks; safe from method processes.
func (s *ShardedWriter[T]) TryWrite(v T) bool { return s.end.TryWrite(v) }

// NotFull is the writer-side writable-event, notified at the freeing date
// of the first available cell (as of the last exchange).
func (s *ShardedWriter[T]) NotFull() *sim.Event { return s.end.notFull }

// Size is the dated monitor count over the writer's mirror (§III-C rules).
func (s *ShardedWriter[T]) Size() int { return s.end.Size() }

// Name returns the channel name.
func (s *ShardedReader[T]) Name() string { return s.end.name }

// Depth returns the capacity in cells.
func (s *ShardedReader[T]) Depth() int { return s.end.Depth() }

// Kernel returns the kernel owning this endpoint.
func (s *ShardedReader[T]) Kernel() *sim.Kernel { return s.end.k }

// Read pops the oldest delivered value exactly like SmartFIFO.Read: park
// (after synchronizing) only when nothing has been delivered; otherwise
// advance the reader's local clock to the datum's insertion date.
func (s *ShardedReader[T]) Read() T { return s.end.Read() }

// ReadBurst is SmartFIFO.ReadBurst over the delivered cells (burst
// contract), staging the freeing-date credits in batches.
func (s *ShardedReader[T]) ReadBurst(dst []T, per sim.Time) { s.end.ReadBurst(dst, per) }

// TryReadBurst pops up to len(dst) externally available words without
// blocking (burst contract) and returns the number read.
func (s *ShardedReader[T]) TryReadBurst(dst []T, per sim.Time) int {
	return s.end.TryReadBurst(dst, per)
}

// IsEmpty is the two-test reader rule over delivered data.
func (s *ShardedReader[T]) IsEmpty() bool { return s.end.IsEmpty() }

// TryRead pops the oldest delivered value if the endpoint is externally
// non-empty at the caller's local date. Never blocks; safe from method
// processes.
func (s *ShardedReader[T]) TryRead() (T, bool) { return s.end.TryRead() }

// NotEmpty is the reader-side readable-event, notified at the insertion
// date of the first available datum (as of the last exchange).
func (s *ShardedReader[T]) NotEmpty() *sim.Event { return s.end.notEmpty }

// Size is the dated monitor count over the reader's mirror (§III-C rules).
func (s *ShardedReader[T]) Size() int { return s.end.Size() }

var (
	_ fifo.WriteEnd[int] = (*ShardedWriter[int])(nil)
	_ fifo.ReadEnd[int]  = (*ShardedReader[int])(nil)
)
