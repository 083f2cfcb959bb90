package core

import (
	"repro/internal/fifo"
	"repro/internal/sim"
)

// Burst access: the packetization extension of §IV-C. The case study's
// network interfaces and DMA engines move whole packets between
// accelerators, memory and the NoC; doing that word by word pays the full
// scalar Write/Read path — bounds checks, per-word date stamping and
// event-notification probes — for every word. Since the words of a burst
// advance the local clock by a fixed per, their dates form arithmetic runs
// that can be annotated in bulk.
//
// # Contract
//
// Every burst method — on SmartFIFO and on both ShardedFIFO endpoints,
// which run this same code (end.go) — is defined by its scalar oracle,
// word 0 transferred at the caller's current local date and per of local
// time advanced between consecutive words:
//
//	WriteBurst:    for i, v := range vals { if i > 0 { p.Inc(per) }; f.Write(v) }
//	ReadBurst:     for i := range dst     { if i > 0 { p.Inc(per) }; dst[i] = f.Read() }
//	TryWriteBurst: for i, v := range vals { if i > 0 { if f.IsFull() { break }; p.Inc(per) }
//	                                        if !f.TryWrite(v) { break }; n++ }
//	TryReadBurst:  for i := range dst     { if i > 0 { if f.IsEmpty() { break }; p.Inc(per) }
//	                                        v, ok := f.TryRead(); if !ok { break }; dst[i] = v; n++ }
//
// The bulk implementation is bit-identical to those loops (pinned by the
// oracle property tests in burst_test.go): values, cell timestamps, local
// dates, Stats counters, context switches and blocking behavior are all
// unchanged. Only Stats.Notifications (a kernel diagnostic counter) drops,
// because redundant per-word notification calls are collapsed.
//
// # Fast path
//
// A burst is split into runs bounded by the next internal occupancy
// boundary (internally full for writes, empty for reads). Within a run no
// other process can execute — the scalar loop never yields between
// non-blocking words — so the run is executed as a whole:
//
//   - payload moves with copy into/out of the ring (≤ 2 contiguous
//     segments); a bridge write run stages it in the outbox instead, and a
//     bridge read run stages its freeing dates as credits, one append per
//     slice;
//   - insertion/freeing dates are annotated in one vector pass (runDates),
//     each word's date being the previous date + per lifted to the cell's
//     bound date exactly as the scalar Inc + AdvanceLocalTo pair does;
//   - event work collapses to at most one NotifyDelta and one
//     NotifyAtReplace per event per run. This is exact: NotifyDelta is
//     idempotent while pending, and NotifyAtReplace has replace semantics,
//     so only the last call before a yield is observable. The dates along
//     a run's bound cells are non-decreasing (each side's access
//     discipline stamps them in ring order), which makes the per-word
//     probe conditions monotone: the last word's probe decides the final
//     pending state.
//
// At a blocking boundary the transfer falls back to the scalar path for
// one word — blocking, stats and the §III-A block policy are exactly the
// scalar ones — then resumes in bulk.

// WriteBurst writes vals in order, advancing the writer's local clock by
// per between consecutive words: word i is written at the date of word 0
// plus i*per (later if the FIFO back-pressures). It blocks like Write when
// the FIFO is internally full.
func (e *end[T]) WriteBurst(vals []T, per sim.Time) {
	p := e.caller("WriteBurst")
	if e.fault != FaultNone || per < 0 {
		// Fault-injection runs keep the literal scalar path (faults
		// perturb per-word behavior the fast path does not model); a
		// negative per panics inside Inc exactly like the scalar loop.
		for i, v := range vals {
			if i > 0 {
				p.Inc(per)
			}
			e.Write(v)
		}
		return
	}
	first := true
	for len(vals) > 0 {
		if n := e.writeRun(p, vals, per, !first); n > 0 {
			vals = vals[n:]
			first = false
			continue
		}
		// Internally full: one scalar word (blocks, counts
		// WriterBlocks, applies the block policy), then resume bulk.
		if !first {
			p.Inc(per)
		}
		e.Write(vals[0])
		vals = vals[1:]
		first = false
	}
}

// ReadBurst fills dst in order, advancing the reader's local clock by per
// between consecutive words. It blocks like Read when the FIFO is
// internally empty.
func (e *end[T]) ReadBurst(dst []T, per sim.Time) {
	p := e.caller("ReadBurst")
	if e.fault != FaultNone || per < 0 {
		for i := range dst {
			if i > 0 {
				p.Inc(per)
			}
			dst[i] = e.Read()
		}
		return
	}
	first := true
	for len(dst) > 0 {
		if n := e.readRun(p, dst, per, !first); n > 0 {
			dst = dst[n:]
			first = false
			continue
		}
		if !first {
			p.Inc(per)
		}
		dst[0] = e.Read()
		dst = dst[1:]
		first = false
	}
}

// TryWriteBurst writes up to len(vals) externally acceptable words without
// blocking, advancing the caller's local clock by per between words, and
// returns the number of words written. Safe from method processes.
func (e *end[T]) TryWriteBurst(vals []T, per sim.Time) int {
	p := e.caller("TryWriteBurst")
	if e.fault != FaultNone || per < 0 {
		n := 0
		for i, v := range vals {
			if i > 0 {
				if e.IsFull() {
					break
				}
				p.Inc(per)
			}
			if !e.TryWrite(v) {
				break
			}
			n++
		}
		return n
	}
	r := &e.cells
	mMax := min(len(r.ins)-r.nBusy, len(vals))
	if mMax == 0 || r.free[r.firstFree] > p.LocalTime() {
		return 0
	}
	e.checkOrder(p, &e.lastWriteDate, "write")
	m, last := tryRunDates(r.ins, r.free, r.firstFree, mMax, p.LocalTime(), per)
	e.commitWrite(p, vals[:m], last)
	return m
}

// TryReadBurst pops up to len(dst) externally available words without
// blocking, advancing the caller's local clock by per between words. It
// returns the number of words read. Safe from method processes; used by
// the NoC network interfaces to packetize.
func (e *end[T]) TryReadBurst(dst []T, per sim.Time) int {
	p := e.caller("TryReadBurst")
	if e.fault != FaultNone || per < 0 {
		n := 0
		for i := range dst {
			if i > 0 {
				if e.IsEmpty() {
					break
				}
				p.Inc(per)
			}
			v, ok := e.TryRead()
			if !ok {
				break
			}
			dst[i] = v
			n++
		}
		return n
	}
	r := &e.cells
	mMax := min(r.nBusy, len(dst))
	if mMax == 0 || r.ins[r.firstBusy] > p.LocalTime() {
		return 0
	}
	e.checkOrder(p, &e.lastReadDate, "read")
	m, last := tryRunDates(r.free, r.ins, r.firstBusy, mMax, p.LocalTime(), per)
	e.commitRead(p, dst[:m], last)
	return m
}

// writeRun executes one bulk write run: up to len(vals) ≥ 1 words into
// the internally free cells. It returns the number of words written, 0
// iff the ring is internally full.
func (e *end[T]) writeRun(p *sim.Process, vals []T, per sim.Time, incFirst bool) int {
	r := &e.cells
	m := min(len(r.ins)-r.nBusy, len(vals))
	if m == 0 {
		return 0
	}
	e.checkOrder(p, &e.lastWriteDate, "write")
	last, adv := runDates(r.ins, r.free, r.firstFree, m, p.LocalTime(), per, incFirst)
	e.stats.WriterAdvances += adv
	e.commitWrite(p, vals[:m], last)
	return m
}

// readRun executes one bulk read run: up to len(dst) ≥ 1 words out of the
// internally busy cells. It returns the number of words read, 0 iff the
// ring is internally empty.
func (e *end[T]) readRun(p *sim.Process, dst []T, per sim.Time, incFirst bool) int {
	r := &e.cells
	m := min(r.nBusy, len(dst))
	if m == 0 {
		return 0
	}
	e.checkOrder(p, &e.lastReadDate, "read")
	last, adv := runDates(r.free, r.ins, r.firstBusy, m, p.LocalTime(), per, incFirst)
	e.stats.ReaderAdvances += adv
	e.commitRead(p, dst[:m], last)
	return m
}

// commitWrite applies a write run of len(vals) ≥ 1 words whose insertion
// dates are already stamped from the first free cell on, ending at local
// date last: the payload (or, on a bridge, its staging), ring indices,
// stats, and the collapsed event epilogue, which reproduces in one shot
// the final pending state the scalar loop's per-word probes leave behind.
func (e *end[T]) commitWrite(p *sim.Process, vals []T, last sim.Time) {
	r := &e.cells
	d := len(r.ins)
	m := len(vals)
	q0 := r.firstFree
	if e.bridge {
		e.stage(p, vals, q0)
	} else {
		copyIn(r.data, q0, vals)
		// Wake a blocked reader (idempotent while pending: one call
		// stands for the scalar loop's m calls). §III-B: the FIFO became
		// externally non-empty at the insertion date of the run's first
		// word (only word 0 can see an all-free ring).
		e.cellFilled.NotifyDelta()
		if r.nBusy == 0 {
			e.notify(e.notEmpty, r.ins[q0])
		}
	}
	r.firstFree = wrap(q0+m, d)
	r.nBusy += m
	e.stats.Writes += uint64(m)
	e.lastWriteDate = last
	p.AdvanceLocalTo(last)
	now := e.k.Now()
	if r.nBusy < d {
		// The scalar loop's last notFull probe names the next free
		// cell's freeing date; earlier probes were replaced.
		if fd := r.free[r.firstFree]; fd > now {
			e.notify(e.notFull, fd)
		}
	} else if m >= 2 {
		// The ring filled: the last probing word was m-2, naming the
		// freeing date of the cell word m-1 then filled.
		if fd := r.free[wrap(q0+m-1, d)]; fd > now {
			e.notify(e.notFull, fd)
		}
	}
}

// commitRead is the symmetric completion of a read run from the first busy
// cell on: payload copy-out, ring indices, stats, the hand-over (credits
// on a bridge, the writer wake-up otherwise) and the collapsed epilogue.
func (e *end[T]) commitRead(p *sim.Process, dst []T, last sim.Time) {
	r := &e.cells
	d := len(r.ins)
	m := len(dst)
	q0 := r.firstBusy
	copyOut(dst, r.data, q0)
	if e.bridge {
		e.credit(p, q0, m)
	} else {
		// Wake a blocked writer. The FIFO became externally non-full at
		// the freeing date of the run's first pop (only word 0 can see
		// an all-busy ring).
		e.cellFreed.NotifyDelta()
		if r.nBusy == d {
			e.notify(e.notFull, r.free[q0])
		}
	}
	r.firstBusy = wrap(q0+m, d)
	r.nBusy -= m
	e.stats.Reads += uint64(m)
	e.lastReadDate = last
	p.AdvanceLocalTo(last)
	now := e.k.Now()
	if r.nBusy > 0 {
		// §III-B case 2: the next datum becomes externally visible
		// only at its (future) insertion date.
		if id := r.ins[r.firstBusy]; id > now {
			e.notify(e.notEmpty, id)
		}
	} else if m >= 2 {
		// The ring drained: the last probing word was m-2, naming the
		// insertion date of the cell word m-1 then popped.
		if id := r.ins[wrap(q0+m-1, d)]; id > now {
			e.notify(e.notEmpty, id)
		}
	}
}

var (
	_ fifo.BurstWriter[int] = (*SmartFIFO[int])(nil)
	_ fifo.BurstReader[int] = (*SmartFIFO[int])(nil)
	_ fifo.BurstWriter[int] = (*ShardedWriter[int])(nil)
	_ fifo.BurstReader[int] = (*ShardedReader[int])(nil)
)

// wrap reduces q into [0, d) assuming q < 2d.
func wrap(q, d int) int {
	if q >= d {
		q -= d
	}
	return q
}

// copyIn copies vals into the ring payload slice starting at q0, in at
// most two contiguous segments.
func copyIn[T any](data []T, q0 int, vals []T) {
	n1 := len(data) - q0
	if n1 > len(vals) {
		n1 = len(vals)
	}
	copy(data[q0:q0+n1], vals[:n1])
	copy(data, vals[n1:])
}

// copyOut moves ring payload starting at q0 into dst and zeroes the
// vacated cells (the scalar path clears each popped cell).
func copyOut[T any](dst []T, data []T, q0 int) {
	n1 := len(data) - q0
	if n1 > len(dst) {
		n1 = len(dst)
	}
	copy(dst[:n1], data[q0:q0+n1])
	clear(data[q0 : q0+n1])
	copy(dst[n1:], data)
	clear(data[:len(dst)-n1])
}

// appendCells appends the m ring entries of s starting at q0 (wrapping) to
// dst, in at most two segments. A single entry, the scalar bridge access,
// is appended without the segment copies.
func appendCells[E any](dst, s []E, q0, m int) []E {
	if m == 1 {
		return append(dst, s[q0])
	}
	n1 := min(len(s)-q0, m)
	dst = append(dst, s[q0:q0+n1]...)
	return append(dst, s[:m-n1]...)
}
