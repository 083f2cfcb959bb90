// Package par executes a partitioned simulation: N sim.Kernel shards, each
// advanced on its own long-lived worker goroutine, scheduled conservatively
// over the Smart-FIFO dates carried by cross-shard bridges
// (core.ShardedFIFO).
//
// # Protocol
//
// Progress is frontier-driven and asynchronous: each shard's worker loops
// through
//
//  1. exchange — for every inbound bridge, publish freed-cell credits and
//     import delivered data; for every outbound bridge, stage written data
//     and publish the frontier bound (AsyncBridge's locked, directional
//     halves of Flush). Peers whose inputs changed are poked awake;
//  2. horizon — the minimum over the inbound bridges' effective frontiers
//     — a lower bound on the insertion dates of anything that can still
//     arrive, taken STRICTLY (the shard stops short of the bound, so a
//     non-blocking reader polling at date D has every word inserted at or
//     before D already delivered) — and the outbound bridges'
//     WriteFrontiers — the shard's kernel clock must never pass the date
//     a credit-blocked writer resumes at, or the writer's restored
//     decoupled local date would clamp to the clock. A shard with no
//     bridges is unbounded;
//  3. step — if the shard holds an event inside its horizon, run the
//     kernel up to it (Kernel.Step) and loop; otherwise park until a peer
//     pokes.
//
// A shard therefore advances the moment its own inbound frontiers allow —
// no all-shard rendezvous, no global round as the unit of progress. When
// every live worker is parked, the Run goroutine takes the all-parked
// rendezvous: a global safe point where it force-flushes every bridge
// (delivering anything withheld), recomputes horizons with full knowledge,
// and either hands the runnable shards one-shot horizon grants, applies
// the global-minimum fallback (see Stats.Fallbacks) when every frontier is
// frozen, or concludes global quiescence: no shard has any pending event
// inside the run limit. That covers both normal termination and model
// deadlock; Blocked distinguishes them.
//
// The scheme is null-message-free: the lookahead a CMB-style scheduler
// would ship in null messages is already present in the Smart-FIFO access
// discipline — write dates on a side never decrease, so the last insertion
// date (plus the writer's local clock, which a temporally decoupled writer
// pushes far ahead of its kernel's date) bounds all future traffic on the
// bridge. A shard runs ahead of the global date exactly as far as the
// paper's cell timestamps prove safe, and blocking bridge accesses
// reproduce single-kernel Smart-FIFO dates bit for bit — under either
// scheduler, since every published bound is conservative no matter when
// it is observed.
//
// The legacy all-shard barrier scheduler is retained (SetBarrier, and
// automatically when a bridge does not implement AsyncBridge): it flushes
// every bridge, bounds every shard, and steps the runnable ones in
// lockstep rounds. Single-shard coordinators always take it — there is
// nothing to overlap.
package par

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// Bridge is a cross-shard channel. core.ShardedFIFO implements it; any
// channel that can report a conservative frontier and deliver at barriers
// can participate.
type Bridge interface {
	// Name identifies the bridge in diagnostics.
	Name() string
	// WriterKernel is the shard that produces into the bridge.
	WriterKernel() *sim.Kernel
	// ReaderKernel is the shard that consumes from the bridge.
	ReaderKernel() *sim.Kernel
	// Frontier returns a lower bound on the dates of all future
	// deliveries. Called only at global safe points (barriers and
	// rendezvous), after Flush. sim.TimeMax means the bridge can never
	// deliver again.
	Frontier() sim.Time
	// WriteFrontier returns a lower bound on the resume date of any
	// writer-side access that blocks on exhausted credits. The writer's
	// shard must not advance its kernel clock past it: a parked writer
	// restores its decoupled local date on wake, and the kernel cannot
	// represent a local date in the global past — an overshooting
	// co-located process would clamp the restore and corrupt the dates.
	// Called only at global safe points, after Flush. sim.TimeMax means
	// the writer can never block again.
	WriteFrontier() sim.Time
	// Flush moves staged data across the boundary and reports whether
	// anything moved. Called only at global safe points.
	Flush() bool
}

// Stats counts coordinator activity. The counters are scheduler-neutral:
// they are meaningful under both the async frontier-driven scheduler and
// the legacy barrier scheduler, but their values depend on goroutine
// interleaving under the async one — report them as performance
// telemetry, never as part of a deterministic model output.
type Stats struct {
	// Advances counts kernel Step dispatches that found work, summed
	// over the shards — the scheduler-neutral unit of progress (a
	// barrier round advances every selected shard once; the async
	// scheduler advances shards independently).
	Advances uint64
	// Rounds counts global rendezvous that dispatched work: barrier
	// rounds under the barrier scheduler, all-parked rendezvous under
	// the async one (where most progress happens between rendezvous,
	// so Rounds is far below Advances).
	Rounds uint64
	// Flushes counts bridge exchanges that moved data or credits across
	// a shard boundary, or raised a published bound.
	Flushes uint64
	// Fallbacks counts rendezvous resolved by the global-minimum rule:
	// no shard had work inside its frontier-derived horizon, so the
	// shards holding the globally earliest event were advanced to
	// exactly that date. This happens when every frontier is frozen —
	// typically the drain phase of a model whose producers park forever
	// instead of terminating (idle accelerators waiting for a next job).
	Fallbacks uint64
}

// counters is the internal, atomically updated form of Stats: the async
// scheduler's workers bump them concurrently.
type counters struct {
	advances  atomic.Uint64
	rounds    atomic.Uint64
	flushes   atomic.Uint64
	fallbacks atomic.Uint64
}

// shard is one kernel plus its coordination state.
type shard struct {
	k        *sim.Kernel
	idx      int
	inbound  []Bridge
	outbound []Bridge
	// aIn/aOut are the async views of inbound/outbound (nil entries when
	// a bridge lacks them — the coordinator then stays on the barrier
	// scheduler); inPeer/outPeer are the peer shard indices, for pokes.
	aIn     []AsyncBridge
	aOut    []AsyncBridge
	inPeer  []int
	outPeer []int
	horizon sim.Time
	run     bool          // selected to run this round/rendezvous
	advs    uint64        // per-shard advance ordinal (worker-local)
	work    chan sim.Time // persistent worker's horizon feed (barrier multi-shard runs)
}

// Coordinator drives a set of shards to global quiescence.
type Coordinator struct {
	shards   []*shard
	byKernel map[*sim.Kernel]*shard
	bridges  []Bridge
	ctr      counters
	running  bool

	// asyncOK is true while every registered bridge supports the
	// frontier-driven scheduler; barrierOnly forces the legacy barrier
	// scheduler regardless (SetBarrier).
	asyncOK     bool
	barrierOnly bool

	// Round barrier state, shared with the shard workers (barrier mode).
	wg        sync.WaitGroup
	panicMu   sync.Mutex
	panicVals []any

	// intr is the coordinator-level interrupt latch (see Interrupt).
	intr atomic.Bool

	// hooks is the fault-injection surface (nil in production);
	// deferred marks bridges whose Flush the hook withheld this round
	// (barrier mode only; the async scheduler withholds the writer-side
	// exchange instead).
	hooks    *Hooks
	deferred map[Bridge]bool

	// m is the optional shared metrics sink, captured at construction
	// (metrics.go); tl is the scheduler timeline recording the next Run
	// (timeline.go) — attached explicitly (SetTimeline, tlOwned) or
	// auto-created per Run while SetTraceCapture is armed.
	m       *SchedMetrics
	tl      *Timeline
	tlOwned bool
}

// Hooks is the coordinator's fault-injection surface, used by the chaos
// harness (internal/chaos) to perturb scheduling without touching the
// protocol. All hooks are optional; a nil *Hooks disables injection.
type Hooks struct {
	// BeforeStep runs on the shard's worker goroutine immediately before
	// Kernel.Step. It may sleep (scheduling jitter) or panic (an induced
	// shard failure); it must not touch kernel state. round is the
	// barrier round under the barrier scheduler and the shard's own
	// advance ordinal (1-based) under the async one — either way, "the
	// shard's first step at or after round R" is well-defined. Hooks
	// must be safe for concurrent calls from different shard workers.
	BeforeStep func(shard int, k *sim.Kernel, round uint64)
	// DeferFlush, when it returns true, withholds the bridge's delivery
	// once: under the barrier scheduler the whole Flush is skipped and
	// the coordinator bounds the reader with the bridge's staged
	// frontier instead; under the async scheduler the writer shard's
	// half of the exchange is withheld, leaving the previously published
	// (still valid) bounds in place. Either way the delay never changes
	// dates, and withheld bridges are force-flushed at the next global
	// safe point before the coordinator concludes anything about
	// quiescence. Hooks must be safe for concurrent calls.
	DeferFlush func(b Bridge, round uint64) bool
}

// SetHooks installs (or, with nil, removes) the fault-injection hooks.
// Must not be called while Run is in progress.
func (c *Coordinator) SetHooks(h *Hooks) {
	if c.running {
		panic("par: SetHooks called while running")
	}
	c.hooks = h
}

// StagedBridge is the optional bridge extension the deferred-flush
// injection relies on: a lower bound on the insertion dates of data
// staged but not yet flushed. core.ShardedFIFO implements it. A bridge
// without it is never deferred.
type StagedBridge interface {
	// StagedFrontier returns the minimum insertion date staged in the
	// writer-side outbox, and ok=false when nothing is staged.
	StagedFrontier() (at sim.Time, ok bool)
}

// Interrupt asks the coordinator and every shard kernel to stop at the
// next safe point (the current barrier round completes first). Safe from
// any goroutine. The latch persists until ClearInterrupt.
func (c *Coordinator) Interrupt() {
	c.intr.Store(true)
	for _, s := range c.shards {
		s.k.Interrupt()
	}
}

// Interrupted reports whether an interrupt is latched.
func (c *Coordinator) Interrupted() bool { return c.intr.Load() }

// ClearInterrupt unlatches the coordinator and every shard kernel so the
// run can be resumed. Call only while Run is not in progress.
func (c *Coordinator) ClearInterrupt() {
	c.intr.Store(false)
	for _, s := range c.shards {
		s.k.ClearInterrupt()
	}
}

// Progress returns the simulated-time beacon stall watchdogs sample:
// the sum of every shard's published simulated time (sim.Kernel.Beacon).
// Two equal samples a stall window apart mean no shard advanced
// simulated time at all in between — the run is deadlocked across a
// bridge, livelocked in delta cycles at one date, or stuck in a
// non-cooperative call; the stall diagnostic's per-shard Beat and
// blocked-thread snapshot say which. Wall-clock-slow but advancing
// models keep the beacon climbing and are never flagged.
func (c *Coordinator) Progress() uint64 {
	var p uint64
	for _, s := range c.shards {
		p += uint64(s.k.Beacon())
	}
	return p
}

// PanicSet carries the panic values of every shard that failed in one
// barrier round, joined so no secondary failure is masked. It is the
// value Run re-panics when more than one shard panicked.
type PanicSet []any

// Error formats all joined panics; PanicSet satisfies error so recovered
// values print usefully through %v.
func (p PanicSet) Error() string {
	s := fmt.Sprintf("par: %d shards panicked in one round:", len(p))
	for i, v := range p {
		s += fmt.Sprintf(" [%d] %v;", i, v)
	}
	return s
}

// NewCoordinator returns an empty coordinator.
func NewCoordinator() *Coordinator {
	return &Coordinator{
		byKernel: make(map[*sim.Kernel]*shard),
		asyncOK:  true,
		m:        defaultSchedMetrics.Load(),
	}
}

// SetBarrier forces (or, with false, releases) the legacy all-shard
// barrier scheduler even when every bridge supports the asynchronous
// frontier-driven one — for scheduler comparisons (cmd/parlat) and
// debugging. Must not be called while Run is in progress. Dates are
// byte-identical under both schedulers.
func (c *Coordinator) SetBarrier(on bool) {
	if c.running {
		panic("par: SetBarrier called while running")
	}
	c.barrierOnly = on
}

// AddShard registers a kernel as a shard. Every kernel referenced by a
// bridge must be added before AddBridge.
func (c *Coordinator) AddShard(k *sim.Kernel) {
	if _, dup := c.byKernel[k]; dup {
		panic(fmt.Sprintf("par: shard %q added twice", k.Name()))
	}
	s := &shard{k: k, idx: len(c.shards)}
	c.byKernel[k] = s
	c.shards = append(c.shards, s)
}

// AddBridge registers a cross-shard channel. Both endpoint kernels must
// already be shards; they may be the same shard (a degenerate bridge,
// still flushed at barriers — how an N-shard model collapses to 1 shard).
func (c *Coordinator) AddBridge(b Bridge) {
	r, ok := c.byKernel[b.ReaderKernel()]
	if !ok {
		panic(fmt.Sprintf("par: bridge %q: reader kernel %q is not a shard", b.Name(), b.ReaderKernel().Name()))
	}
	w, ok := c.byKernel[b.WriterKernel()]
	if !ok {
		panic(fmt.Sprintf("par: bridge %q: writer kernel %q is not a shard", b.Name(), b.WriterKernel().Name()))
	}
	r.inbound = append(r.inbound, b)
	w.outbound = append(w.outbound, b)
	ab, isAsync := b.(AsyncBridge)
	if !isAsync {
		c.asyncOK = false
	}
	r.aIn = append(r.aIn, ab)
	r.inPeer = append(r.inPeer, w.idx)
	w.aOut = append(w.aOut, ab)
	w.outPeer = append(w.outPeer, r.idx)
	c.bridges = append(c.bridges, b)
}

// Kernels returns the shard kernels in registration order.
func (c *Coordinator) Kernels() []*sim.Kernel {
	out := make([]*sim.Kernel, len(c.shards))
	for i, s := range c.shards {
		out[i] = s.k
	}
	return out
}

// Stats returns a snapshot of the coordinator counters. Safe to call
// concurrently with a run, though the counters move while it does.
func (c *Coordinator) Stats() Stats {
	return Stats{
		Advances:  c.ctr.advances.Load(),
		Rounds:    c.ctr.rounds.Load(),
		Flushes:   c.ctr.flushes.Load(),
		Fallbacks: c.ctr.fallbacks.Load(),
	}
}

// KernelStats sums the activity counters of every shard.
func (c *Coordinator) KernelStats() sim.Stats {
	var t sim.Stats
	for _, s := range c.shards {
		st := s.k.Stats()
		t.ContextSwitches += st.ContextSwitches
		t.MethodActivations += st.MethodActivations
		t.DeltaCycles += st.DeltaCycles
		t.TimedSteps += st.TimedSteps
		t.Notifications += st.Notifications
	}
	return t
}

// Now returns the conservative global date: the minimum of the shard
// clocks (every event before it has been simulated).
func (c *Coordinator) Now() sim.Time {
	if len(c.shards) == 0 {
		return 0
	}
	min := c.shards[0].k.Now()
	for _, s := range c.shards[1:] {
		if n := s.k.Now(); n < min {
			min = n
		}
	}
	return min
}

// Run executes the shards until global quiescence, or — with
// limit >= 0 — until no shard has activity dated at or before limit.
// Like Kernel.Run it may be called again to resume with a larger limit.
// Multi-shard runs whose bridges all support AsyncBridge take the
// frontier-driven scheduler (see the package doc) unless SetBarrier
// forced the legacy barrier one; dates are identical either way.
func (c *Coordinator) Run(limit sim.Time) {
	if c.running {
		panic("par: Run called re-entrantly")
	}
	c.running = true
	defer func() { c.running = false }()
	// Arm the scheduler timeline: an explicitly attached one keeps
	// accumulating; otherwise a fresh per-Run capture while
	// SetTraceCapture is on. Either way the finished trace is published
	// through LastTrace when the run returns.
	if !c.tlOwned && len(c.shards) > 1 {
		if n := traceCapacity.Load(); n > 0 {
			c.tl = c.newTimeline(int(n))
		} else {
			c.tl = nil
		}
	}
	if c.tl != nil {
		defer func() {
			lastTrace.Store(c.tl)
			if !c.tlOwned {
				c.tl = nil
			}
		}()
	}
	if len(c.shards) > 1 && c.asyncOK && !c.barrierOnly {
		c.runAsync(limit)
		return
	}
	if len(c.shards) > 1 {
		// One persistent worker goroutine per shard for the whole run:
		// barrier rounds are frequent (one per exhausted lookahead), so
		// spawning goroutines per round would tax exactly the path the
		// parallel speedup depends on.
		c.startWorkers()
		defer c.stopWorkers()
	}

	for {
		// Cooperative abort: an Interrupt latched during the previous
		// round (every shard kernel is latched too, so in-flight Steps
		// returned at their next safe point) ends the run at the
		// barrier, where all state is consistent and diagnosable.
		if c.intr.Load() {
			return
		}
		// Barrier: deliver everything staged during the previous round,
		// then bound each shard by its inbound frontiers. Flushing first
		// makes Frontier's bound cover all undelivered traffic.
		c.flushBridges(false)
		work := c.selectByFrontiers(limit)
		if work == 0 {
			// A deferred flush may be hiding the only deliverable work:
			// force everything across and re-derive the horizons before
			// concluding anything about quiescence or frozen frontiers.
			if len(c.deferred) > 0 {
				c.flushBridges(true)
				continue
			}
			if work = c.fallback(limit); work == 0 {
				return
			}
			c.ctr.fallbacks.Add(1)
			if c.m != nil {
				c.m.Fallbacks.Inc()
			}
			if c.tl != nil {
				c.tl.mark(c.tl.coordRow(), tlFallback, 0)
			}
		}
		c.ctr.rounds.Add(1)
		c.ctr.advances.Add(uint64(work))
		if c.m != nil {
			c.m.Rendezvous.Inc()
			c.m.Advances.Add(uint64(work))
		}
		if tl := c.tl; tl != nil {
			t0 := time.Now()
			c.runRound()
			tl.span(tl.coordRow(), tlRound, t0, time.Now(), int64(work))
			continue
		}
		c.runRound()
	}
}

// selectByFrontiers recomputes every shard's horizon from its bridges'
// published bounds and marks the shards holding an event inside it,
// returning how many there are. Called only at global safe points, after
// the bridges were flushed (or, for deferred ones, with their staged
// frontier folded in).
func (c *Coordinator) selectByFrontiers(limit sim.Time) int {
	work := 0
	for _, s := range c.shards {
		// The inbound bound is STRICT: a shard may only process
		// events dated before its bridges' frontiers. An inclusive
		// bound would let a non-blocking (method/Try) reader poll at
		// date D before a word inserted exactly at D has crossed the
		// barrier — a visibility miss a single-kernel Smart FIFO
		// cannot have. (Blocking access is indifferent: a parked
		// reader advances to the datum's exact date either way.)
		h := sim.TimeMax
		for _, b := range s.inbound {
			f := b.Frontier()
			// A bridge whose Flush was withheld by the chaos hook
			// may still hold staged data older than its frontier;
			// bound the reader by the staged dates so the deferral
			// can never cause a visibility miss.
			if c.deferred[b] {
				if at, ok := b.(StagedBridge).StagedFrontier(); ok && at < f {
					f = at
				}
			}
			if f < h {
				h = f
			}
		}
		// The outbound bound is inclusive: never run the kernel
		// clock PAST the date a credit-blocked writer on this shard
		// must resume at, or its restored (decoupled) local date
		// would clamp to the clock.
		for _, b := range s.outbound {
			if f := b.WriteFrontier(); f != sim.TimeMax && f+1 < h {
				h = f + 1
			}
		}
		if limit >= 0 && limit+1 > 0 && limit+1 < h {
			h = limit + 1
		}
		s.horizon = h
		s.run = false
		if at, ok := s.k.NextEventAt(); ok && at < h {
			s.run = true
			work++
		}
	}
	return work
}

// fallback applies the global-minimum rule after selectByFrontiers found
// no runnable shard: either the model is globally quiescent (returns 0 —
// nothing pending inside the limit), or every frontier is frozen because
// the processes that would advance them are themselves waiting (a
// conservative stall, not a model deadlock). The globally earliest
// pending event is always safe to process: any shard can only act at its
// kernel date or later, so nothing can ever be delivered with an earlier
// insertion date.
func (c *Coordinator) fallback(limit sim.Time) int {
	tmin := sim.TimeMax
	for _, s := range c.shards {
		if at, ok := s.k.NextEventAt(); ok && at < tmin {
			tmin = at
		}
	}
	if tmin == sim.TimeMax || (limit >= 0 && tmin > limit) {
		return 0
	}
	work := 0
	for _, s := range c.shards {
		if at, ok := s.k.NextEventAt(); ok && at <= tmin {
			s.horizon = tmin + 1 // exclusive, like the frontier bound
			s.run = true
			work++
		}
	}
	return work
}

// flushBridges flushes every bridge, honouring the DeferFlush injection
// hook unless force is set. Only bridges that can report a staged
// frontier (StagedBridge) are ever deferred: the horizon computation
// needs that bound to keep the delay invisible to dates.
func (c *Coordinator) flushBridges(force bool) {
	for _, b := range c.bridges {
		if !force && c.hooks != nil && c.hooks.DeferFlush != nil {
			if _, ok := b.(StagedBridge); ok && c.hooks.DeferFlush(b, c.ctr.rounds.Load()) {
				if c.deferred == nil {
					c.deferred = make(map[Bridge]bool)
				}
				c.deferred[b] = true
				continue
			}
		}
		delete(c.deferred, b)
		if b.Flush() {
			c.ctr.flushes.Add(1)
		}
	}
}

// startWorkers spawns one long-lived goroutine per shard; each waits for
// a horizon on its channel, steps its kernel, and signals the round
// WaitGroup. The channel send / WaitGroup barrier provide the
// happens-before edges between a shard's round and the next flush;
// shards share no mutable state while running.
func (c *Coordinator) startWorkers() {
	for _, s := range c.shards {
		s.work = make(chan sim.Time)
		go func(s *shard, work <-chan sim.Time) {
			for h := range work {
				c.stepShard(s, h)
			}
		}(s, s.work)
	}
}

func (c *Coordinator) stopWorkers() {
	for _, s := range c.shards {
		close(s.work)
		s.work = nil
	}
}

// failure returns what ended shard s's step abnormally: the recovered
// panic value, or — when there is none but the kernel still has a
// current process — an error for the runtime.Goexit (t.FailNow, ...)
// that process ran. The kernel carries a thread's Goexit onto the
// goroutine stepping it, where recover cannot see it; unrecorded, the
// coordinator would wait forever for the vanished worker.
func (s *shard) failure(r any) any {
	if r == nil {
		if p := s.k.Current(); p != nil {
			return fmt.Errorf("par: shard %d: process %q called runtime.Goexit", s.idx, p.Name())
		}
	}
	return r
}

// stepShard runs one shard's round, capturing a model panic so the
// barrier still completes; Run re-panics on the caller's goroutine —
// every captured value, joined, so a second shard's failure in the same
// round is never masked by the first.
func (c *Coordinator) stepShard(s *shard, h sim.Time) {
	defer c.wg.Done()
	defer func() {
		if r := s.failure(recover()); r != nil {
			c.panicMu.Lock()
			c.panicVals = append(c.panicVals, r)
			c.panicMu.Unlock()
		}
	}()
	if c.hooks != nil && c.hooks.BeforeStep != nil {
		c.hooks.BeforeStep(s.idx, s.k, c.ctr.rounds.Load())
	}
	if tl := c.tl; tl != nil {
		t0 := time.Now()
		s.k.Step(stepLimit(h))
		tl.span(s.idx, tlStep, t0, time.Now(), int64(c.ctr.rounds.Load()))
		return
	}
	s.k.Step(stepLimit(h))
}

// runRound advances every selected shard to its horizon, concurrently.
func (c *Coordinator) runRound() {
	var single *shard
	n := 0
	for _, s := range c.shards {
		if s.run {
			single = s
			n++
		}
	}
	if n == 1 {
		// Only one shard has work: step it inline, skipping the barrier.
		// The injection hook still fires — a chaos-induced panic here
		// propagates directly, like any single-kernel model panic.
		if c.hooks != nil && c.hooks.BeforeStep != nil {
			c.hooks.BeforeStep(single.idx, single.k, c.ctr.rounds.Load())
		}
		single.k.Step(stepLimit(single.horizon))
		return
	}
	for _, s := range c.shards {
		if !s.run {
			continue
		}
		c.wg.Add(1)
		s.work <- s.horizon
	}
	c.wg.Wait()
	if len(c.panicVals) > 0 {
		vals := c.panicVals
		c.panicVals = nil
		if len(vals) == 1 {
			panic(vals[0])
		}
		panic(PanicSet(vals))
	}
}

// stepLimit maps an exclusive horizon onto Kernel.Step's inclusive limit
// (and the unbounded horizon onto the run-forever sentinel).
func stepLimit(h sim.Time) sim.Time {
	if h == sim.TimeMax {
		return sim.RunForever
	}
	return h - 1
}

// Blocked reports, per shard, the thread processes that are neither
// terminated nor runnable after Run returned. Shards whose names collide
// are keyed by registration index. A non-empty result after a Run with
// limit == sim.RunForever means the model deadlocked (or parks processes
// by design, like idle accelerators waiting for their next job).
func (c *Coordinator) Blocked() map[string][]string {
	out := make(map[string][]string)
	for i, s := range c.shards {
		if b := s.k.Blocked(); len(b) > 0 {
			key := s.k.Name()
			if _, dup := out[key]; dup {
				key = fmt.Sprintf("%s#%d", key, i)
			}
			out[key] = b
		}
	}
	return out
}

// Shutdown force-terminates every shard's live thread processes. Call it
// when discarding the coordinator, exactly like Kernel.Shutdown.
func (c *Coordinator) Shutdown() {
	for _, s := range c.shards {
		s.k.Shutdown()
	}
}
