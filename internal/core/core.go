// Package core implements the paper's contribution: the Smart FIFO
// (Helmstetter et al., DATE 2013, §III), a bounded FIFO channel that makes
// temporal decoupling work for FIFO-based communications with zero timing
// error and no user-chosen quantum.
//
// # Idea
//
// A regular FIFO under temporal decoupling either corrupts timing (no
// synchronization, Fig. 3) or costs one context switch per access
// (sync-on-every-access, the TDless baseline). The Smart FIFO instead
// timestamps every cell: each cell records its last data-insertion date
// and its last freeing date. A blocking read advances the *reader's local
// clock* to the insertion date of the data it pops instead of context
// switching; a blocking write symmetrically advances the *writer's local
// clock* to the freeing date of the cell it fills. Context switches happen
// only when the FIFO is internally full or empty.
//
// # Interfaces (paper Fig. 4)
//
// The Smart FIFO exposes three interfaces:
//
//   - writer side: Write, TryWrite, IsFull, NotFull — high-rate, requires
//     non-decreasing local dates across accesses;
//   - reader side: Read, TryRead, IsEmpty, NotEmpty — ditto;
//   - monitor: Size, Depth — low-rate, any synchronized process.
//
// Each side must be accessed by a single process (time must go forward on
// each side independently); use Arbiter when several processes share a
// side. The access discipline is checked at run time.
//
// # One channel, two deployments
//
// The §III channel is written once, as the unexported end type (end.go,
// burst.go). SmartFIFO is one end whose writes and reads meet in its
// ring. ShardedFIFO (sharded.go) is the cross-kernel bridge of
// internal/par: two ends, one per kernel, whose writes stage into an
// outbox and whose reads return freeing dates as credits, moved across by
// an exchange. Both deployments therefore share every date rule, the burst
// fast paths, and the mutation suite of Fault.
package core

import (
	"repro/internal/fifo"
	"repro/internal/sim"
)

// Each hardware FIFO slot carries the two timestamps of §III-A — the last
// data-insertion date and the last freeing date — stored struct-of-arrays
// in a ring (ring.go). Together they let the channel answer, for any query
// date, whether the *real* FIFO cell was occupied at that date (see Size),
// and they are what the bulk transfer paths (burst.go) annotate as
// arithmetic runs.

// Stats counts Smart FIFO activity, for the Fig. 5 analysis.
type Stats struct {
	// Writes and Reads count completed accesses.
	Writes, Reads uint64
	// WriterBlocks and ReaderBlocks count accesses that had to context
	// switch because the FIFO was internally full (resp. empty).
	WriterBlocks, ReaderBlocks uint64
	// WriterAdvances and ReaderAdvances count accesses whose only cost
	// was a local-clock advance — the context switches the Smart FIFO
	// saved relative to a regular FIFO under the same timing.
	WriterAdvances, ReaderAdvances uint64
}

// SmartFIFO is a bounded FIFO channel for temporally decoupled models. It
// contains as many cells as the hardware FIFO it models. Writes may block
// (hardware FIFOs are bounded), so both directions carry timestamps.
//
// A SmartFIFO is one end (end.go) whose writes and reads meet in its ring:
// its channel methods are the end's.
type SmartFIFO[T any] struct {
	end[T]
}

// BlockPolicy selects how a blocking access behaves when the channel is
// internally full (write) or empty (read). This is the §III-A
// design-choice ablation, and it shows the paper's choice is load-bearing:
//
// With SyncThenWait (the paper's step 1), a process synchronizes before
// parking, so the global date catches up with it first. That bounds how
// far the channel's *internal* state can run ahead of the global date: a
// cell can be freed-and-refilled at most one generation beyond what a
// synchronized observer has seen, which is exactly the precondition of
// the one-generation timestamps that IsEmpty/IsFull/Size interpret
// (§III-B/C store only the *last* insertion and freeing date per cell).
//
// With WaitOnly, a blocked process keeps its decoupling offset. For pure
// Kahn usage (blocking Read/Write only) the dates stay exact — the data
// path never needs more than the latest stamps. But an entire stream can
// then execute internally at one global instant, cycling each cell
// through many generations, and the monitor/non-blocking interfaces lose
// history they cannot reconstruct: Size and the delayed events become
// wrong (TestWaitOnlyBreaksMonitor demonstrates it). WaitOnly exists for
// this ablation; models must use SyncThenWait.
type BlockPolicy int

const (
	// SyncThenWait is the paper's step 1: "synchronize the writer
	// process and wait until a cell is available".
	SyncThenWait BlockPolicy = iota
	// WaitOnly parks the decoupled process directly on the internal
	// event, keeping its local offset. Exact for Kahn-only traffic;
	// unsound for the monitor and non-blocking interfaces. Ablation
	// only.
	WaitOnly
)

// String names the policy.
func (b BlockPolicy) String() string {
	if b == WaitOnly {
		return "wait-only"
	}
	return "sync-then-wait"
}

// SetBlockPolicy selects the blocking behavior (default SyncThenWait).
func (f *SmartFIFO[T]) SetBlockPolicy(p BlockPolicy) { f.policy = p }

// NewSmart creates a Smart FIFO with the given depth (cells), which must be
// positive.
func NewSmart[T any](k *sim.Kernel, name string, depth int) *SmartFIFO[T] {
	f := &SmartFIFO[T]{newEnd[T](k, name, depth, false)}
	f.cellFreed = sim.NewEvent(k, name+".cell_freed")
	f.cellFilled = sim.NewEvent(k, name+".cell_filled")
	f.notEmpty = sim.NewEvent(k, name+".not_empty")
	f.notFull = sim.NewEvent(k, name+".not_full")
	return f
}

// InternalSize returns the number of internally busy cells, ignoring
// timestamps. Exposed for tests and benchmarks; models must use Size.
func (f *SmartFIFO[T]) InternalSize() int { return f.cells.nBusy }

var _ fifo.Channel[int] = (*SmartFIFO[int])(nil)
