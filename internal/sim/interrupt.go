package sim

import "sync/atomic"

// Cooperative interruption. A Kernel is single-threaded by design, but a
// supervisor (a per-point deadline in the campaign engine, the shard
// coordinator's stall watchdog, a service shutting down) must be able to
// stop a running kernel from another goroutine without corrupting it. The
// kernel polls an atomic flag at safe points of the evaluate/delta/timed
// loop — between process dispatches, never inside one — so an interrupted
// Step returns with all kernel and model state consistent: the run can be
// resumed with another Step (after ClearInterrupt) or discarded with
// Shutdown, and no goroutine is leaked either way.
//
// The same poll points publish two beacons external watchdogs sample:
// Beat, a counter bumped at every poll (is the kernel dispatching at
// all?), and Beacon, the kernel's simulated time as of the last poll
// (is the simulation going anywhere?). A stall watchdog keys on Beacon:
// frozen simulated time over a whole wall-clock window means the run is
// deadlocked, livelocked in delta cycles at one date, or stuck in a
// non-cooperative blocking call — Beat then tells the diagnostic which.

// pollEvery is the dispatch countdown between interrupt polls inside the
// evaluate drain. Poll points cost one atomic add and one atomic load;
// spacing them keeps the overhead invisible next to the dispatch itself
// (a coroutine switch, or a method call) while bounding interrupt
// latency to a few dozen dispatches.
const pollEvery = 64

// interruptState is the cross-goroutine half of the kernel, kept apart
// from the single-threaded hot state.
type interruptState struct {
	// intr is latched by Interrupt (any goroutine) and polled by Step.
	intr atomic.Bool
	// beat is the dispatch-liveness beacon: bumped at every poll point.
	beat atomic.Uint64
	// now is the published simulated time: stored at every poll point,
	// read by stall watchdogs (k.now itself is single-threaded state).
	now atomic.Int64
	// countdown spaces the polls inside the evaluate drain. Only the
	// kernel goroutine touches it.
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
// poll — the value a stall watchdog samples from outside. Unlike Now it
// may be read from any goroutine while the kernel runs; it lags Now by
// at most one poll interval.
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
// report whether the kernel should stop. Called by Step between
// dispatches and at each phase boundary.
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

// pollDispatch is the countdown-spaced poll used inside the evaluate
// drain, where dispatches are most frequent.
func (k *Kernel) pollDispatch() bool {
	k.is.countdown--
	if k.is.countdown > 0 {
		return false
	}
	k.is.countdown = pollEvery
	return k.poll()
}
