package sim

import "sync/atomic"

// Cooperative interruption. A Kernel is single-threaded by design, but a
// supervisor (a per-point deadline in the campaign engine, the shard
// coordinator's stall watchdog, a service shutting down) must be able to
// stop a running kernel from another goroutine without corrupting it. The
// kernel polls an atomic flag at safe points of the evaluate/delta/timed
// loop — on Step entry, then every pollEvery loop iterations, always
// between process dispatches and never inside one — so an interrupted
// Step returns with all kernel and model state consistent: the run can be
// resumed with another Step (after ClearInterrupt) or discarded with
// Shutdown, and no goroutine is leaked either way.
//
// The same poll points publish two beacons external watchdogs sample:
// Beat, a counter bumped at every poll (is the kernel dispatching at
// all?), and Beacon, the kernel's simulated time as of the last poll or
// Step return (is the simulation going anywhere?). A stall watchdog keys
// on Beacon: frozen simulated time over a whole wall-clock window means
// the run is deadlocked, livelocked in delta cycles at one date, or stuck
// in a non-cooperative blocking call — Beat then tells the diagnostic
// which.

// pollEvery is the countdown between interrupt polls: every loop
// iteration — one dispatch or one phase boundary — counts one. A poll
// costs one atomic add, one atomic store and one atomic load, plus five
// shared atomics when metrics are on; spacing polls keeps that invisible
// next to the dispatches themselves (a coroutine switch, or a method
// call) while bounding interrupt latency to pollEvery iterations, also in
// loops that dispatch nothing (delta or timed notifications without
// subscribers).
const pollEvery = 64

// interruptState is the cross-goroutine half of the kernel, kept apart
// from the single-threaded hot state.
type interruptState struct {
	// intr is latched by Interrupt (any goroutine) and polled by Step.
	intr atomic.Bool
	// beat is the dispatch-liveness beacon: bumped at every poll point.
	beat atomic.Uint64
	// now is the published simulated time: stored at every poll point
	// and at Step return, read by stall watchdogs (k.now itself is
	// single-threaded state).
	now atomic.Int64
	// countdown spaces the polls by loop iterations. Only whoever runs
	// the loop touches it.
	countdown int
	// hook, when non-nil, is the step-budget hook: polled at safe
	// points; returning true latches an interrupt. Only the kernel's
	// owner may set it, between runs.
	hook func() bool
}

// Interrupt asks the kernel to stop at the next safe point. It is the
// only kernel method that may be called from any goroutine at any time,
// including while the kernel is running. The flag latches: a Step (or
// Run) in progress returns early, and every later Step returns
// immediately until ClearInterrupt. Interrupting a kernel never corrupts
// it — the poll points lie between dispatches, where all state is
// consistent.
func (k *Kernel) Interrupt() { k.is.intr.Store(true) }

// Interrupted reports whether an interrupt is latched.
func (k *Kernel) Interrupted() bool { return k.is.intr.Load() }

// ClearInterrupt unlatches the interrupt flag so the kernel can be
// stepped again. Call it only while the kernel is not running.
func (k *Kernel) ClearInterrupt() { k.is.intr.Store(false) }

// Beat returns the progress beacon: a counter bumped at every safe-point
// poll while the kernel executes. A watchdog that samples Beat twice and
// sees no change knows the kernel dispatched (almost) nothing in
// between; one that sees it climbing while the run never returns is
// looking at a runaway model.
func (k *Kernel) Beat() uint64 { return k.is.beat.Load() }

// Beacon returns the kernel's simulated time as of the last safe-point
// poll or Step return — the value a stall watchdog samples from outside.
// Unlike Now it may be read from any goroutine while the kernel runs; it
// lags Now by at most pollEvery loop iterations, and equals Now once Step
// has returned (also when Step stopped at its limit).
func (k *Kernel) Beacon() Time { return Time(k.is.now.Load()) }

// SetInterruptHook installs fn as the kernel's step-budget hook: it is
// polled at the same safe points as the interrupt flag, and returning
// true latches an interrupt exactly like Interrupt. A nil fn removes the
// hook. Unlike Interrupt, the hook runs on the kernel's own goroutine,
// so a single-threaded embedder can enforce a dispatch or wall-clock
// budget without a supervisor goroutine. Set it only while the kernel is
// not running.
func (k *Kernel) SetInterruptHook(fn func() bool) {
	if k.running {
		panic("sim: SetInterruptHook called while running")
	}
	k.is.hook = fn
}

// poll is the safe-point check: bump the beacons, consult the hook, and
// report whether the kernel should stop. Called on Step entry and by
// tick.
func (k *Kernel) poll() bool {
	k.is.beat.Add(1)
	k.is.now.Store(int64(k.now))
	if k.msink != nil {
		k.publishMetrics()
	}
	if k.is.hook != nil && k.is.hook() {
		k.is.intr.Store(true)
	}
	return k.is.intr.Load()
}

// tick counts one loop iteration (a dispatch or a phase boundary) and
// polls every pollEvery iterations; it reports whether Step must return.
func (k *Kernel) tick() bool {
	k.is.countdown--
	if k.is.countdown > 0 {
		return false
	}
	k.is.countdown = pollEvery
	return k.poll()
}
