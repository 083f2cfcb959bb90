package par

// The frontier-driven scheduler: one long-lived worker goroutine per
// shard, each advancing the moment its own inbound bridge frontiers
// allow, with an all-parked rendezvous on the Run goroutine as the
// deadlock-free slow path. See the package doc for the protocol and its
// safety argument.

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/sim"
)

// sched is the park/poke state shared by one run's workers and its
// rendezvous goroutine. Everything in it is guarded by mu; the bridges
// themselves carry their own locks, so a poke never has to be delivered
// under a bridge lock.
type sched struct {
	mu sync.Mutex
	// One condition variable per shard worker, all on mu: a poke or a
	// grant wakes exactly its target, never the whole fleet — a
	// broadcast here would charge every parked worker a full exchange
	// loop per wake, a cost that grows with system size.
	workers []*sync.Cond
	rendez  *sync.Cond // the Run goroutine waits here for all-parked
	// poke marks a shard whose inbound bounds may have moved since it
	// last derived its horizon; grant hands a shard a one-shot horizon
	// from the rendezvous (0 = none — every real grant is at least 1,
	// the exclusive bound above a date-0 event).
	poke   []bool
	grant  []sim.Time
	parked []bool
	// capped records, for a parked worker, whether its kernel still held
	// a timed event beyond the horizon. Only such a worker can profit
	// from a bound-only publication; a worker parked with no event at
	// all is woken solely by hard pokes (data or credits — the
	// publications that can make one of its processes runnable).
	capped []bool
	// dead marks workers that exited after recovering a model panic;
	// they never park again, so the all-parked count excludes them.
	dead    []bool
	nParked int
	nDead   int
	stop    bool
	panics  []any
}

// readyLocked reports whether the run is at a global safe point: every
// live worker parked with no wake reason pending. Pending pokes or
// grants mean a parked worker is about to resume — not quiescent.
func (sc *sched) readyLocked() bool {
	if sc.nParked != len(sc.parked)-sc.nDead {
		return false
	}
	for i := range sc.parked {
		if !sc.dead[i] && (sc.poke[i] || sc.grant[i] != 0) {
			return false
		}
	}
	return true
}

// poke marks shard i's inputs as changed and wakes it if parked. Always
// called after the publication it reports, so a peer that re-derives its
// horizon on this wake observes the new bound. from is the poking
// shard's index (for the timeline trace).
//
// hard marks a publication that can make one of the peer's processes
// runnable (delivered data, credits against a full window). A soft poke —
// a raised bound — is delivered to an awake peer (it re-checks the flag
// under this mutex before parking, so the bound is never missed) and to a
// horizon-capped parked one, but skipped entirely for a peer parked with
// no pending event: no bound can conjure an event, its next exchange
// re-reads every published value anyway, and the rendezvous recomputes
// all frontiers with full knowledge should everyone end up parked.
func (c *Coordinator) poke(sc *sched, from, i int, hard bool) {
	if tl := c.tl; tl != nil {
		k := tlPokeSoft
		if hard {
			k = tlPokeHard
		}
		tl.mark(from, k, int64(i))
	}
	sc.mu.Lock()
	if !sc.dead[i] {
		if !sc.parked[i] {
			sc.poke[i] = true
		} else if hard || sc.capped[i] {
			sc.poke[i] = true
			sc.workers[i].Signal()
			if m := c.m; m != nil {
				if hard {
					m.WakesHard.Inc()
				} else {
					m.WakesSoft.Inc()
				}
			}
		}
	}
	sc.mu.Unlock()
}

// park blocks shard s's worker until a wake reason arrives. capped
// reports whether the kernel still holds a timed event beyond the
// horizon (see sched.capped). It returns (g, true) when the rendezvous
// granted the one-shot horizon g, (0, true) when a peer poked —
// re-derive the horizon — and (0, false) when the run is stopping. The
// poke flag is checked before waiting, under the same mutex the poker
// sets it under, so a bound published between this shard's horizon
// derivation and its park is never missed.
func (c *Coordinator) park(s *shard, sc *sched, capped bool) (grant sim.Time, ok bool) {
	m, tl := c.m, c.tl
	var t0 time.Time
	waited := false
	if tl != nil {
		t0 = time.Now()
		defer func() {
			if waited {
				var a int64
				if capped {
					a = 1
				}
				tl.span(s.idx, tlPark, t0, time.Now(), a)
			}
		}()
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for {
		if sc.stop {
			return 0, false
		}
		if g := sc.grant[s.idx]; g != 0 {
			sc.grant[s.idx] = 0
			sc.poke[s.idx] = false
			return g, true
		}
		if sc.poke[s.idx] {
			sc.poke[s.idx] = false
			return 0, true
		}
		if !waited {
			waited = true
			if m != nil {
				m.Parks.Inc()
			}
		}
		sc.capped[s.idx] = capped
		sc.parked[s.idx] = true
		sc.nParked++
		if m != nil {
			m.ParkedWorkers.Set(int64(sc.nParked))
		}
		if sc.readyLocked() {
			sc.rendez.Signal()
		}
		sc.workers[s.idx].Wait()
		sc.parked[s.idx] = false
		sc.nParked--
		if m != nil {
			m.ParkedWorkers.Set(int64(sc.nParked))
		}
	}
}

// asyncStep advances s's kernel inside s.horizon, bumping the shard's
// advance ordinal and firing the injection hook (which receives that
// ordinal as its round — see Hooks.BeforeStep).
func (c *Coordinator) asyncStep(s *shard) {
	s.advs++
	if c.hooks != nil && c.hooks.BeforeStep != nil {
		c.hooks.BeforeStep(s.idx, s.k, s.advs)
	}
	c.ctr.advances.Add(1)
	if m := c.m; m != nil {
		m.Advances.Inc()
	}
	if tl := c.tl; tl != nil {
		t0 := time.Now()
		s.k.Step(stepLimit(s.horizon))
		tl.span(s.idx, tlStep, t0, time.Now(), int64(s.advs))
		return
	}
	s.k.Step(stepLimit(s.horizon))
}

// failure returns what ended shard s's step abnormally: the recovered
// panic value, or — when there is none but the kernel still has a
// current process — an error for the runtime.Goexit (t.FailNow, ...)
// that process ran. The kernel carries a thread's Goexit onto the
// goroutine stepping it, where recover cannot see it; unrecorded, the
// rendezvous would wait forever for the vanished worker.
func (s *shard) failure(r any) any {
	if r == nil {
		if p := s.k.Current(); p != nil {
			return fmt.Errorf("par: shard %d: process %q called runtime.Goexit", s.idx, p.Name())
		}
	}
	return r
}

// asyncWorker is one shard's long-lived scheduling loop: exchange both
// halves of every adjacent bridge, derive the horizon, step if an event
// lies inside it, park otherwise. A model panic retires the worker —
// peers keep running until they park on the frozen frontiers, so a
// second shard failing in the same window is never masked (the
// rendezvous joins every recorded panic into a PanicSet).
func (c *Coordinator) asyncWorker(s *shard, sc *sched, limit sim.Time, wg *sync.WaitGroup) {
	defer wg.Done()
	defer func() {
		if r := s.failure(recover()); r != nil {
			sc.mu.Lock()
			sc.panics = append(sc.panics, r)
			sc.dead[s.idx] = true
			sc.nDead++
			if sc.readyLocked() {
				sc.rendez.Signal()
			}
			sc.mu.Unlock()
		}
	}()
	m, tl := c.m, c.tl
	for {
		if c.intr.Load() {
			// Interrupted: park. In-flight peers return at their own
			// next safe point (their kernels are latched too); when the
			// last one parks, the rendezvous observes the latch and
			// stops the run.
			if _, ok := c.park(s, sc, false); !ok {
				return
			}
			continue
		}
		// Exchange this shard's half of every adjacent bridge, poking
		// the peer after each publication (hard for data/credits, soft
		// for bare bound raises — see poke), and derive the horizon:
		// the inbound effective frontiers taken STRICTLY, the outbound
		// write frontiers inclusively (see selectByFrontiers for why).
		var tx time.Time
		if m != nil || tl != nil {
			tx = time.Now()
		}
		h := sim.TimeMax
		for i, b := range s.inbound {
			f, credit, bound := b.FlushReaderSide()
			if credit || bound {
				c.ctr.flushes.Add(1)
				c.poke(sc, s.idx, s.inPeer[i], credit)
			}
			if f < h {
				h = f
			}
		}
		for i, b := range s.outbound {
			deferData := c.hooks != nil && c.hooks.DeferFlush != nil && c.hooks.DeferFlush(b, s.advs)
			wf, data, bound := b.FlushWriterSide(deferData)
			if data || bound {
				c.ctr.flushes.Add(1)
				c.poke(sc, s.idx, s.outPeer[i], data)
			}
			if wf != sim.TimeMax && wf+1 < h {
				h = wf + 1
			}
		}
		if limit >= 0 && limit+1 > 0 && limit+1 < h {
			h = limit + 1
		}
		s.horizon = h
		if m != nil {
			m.obsExchange(tx)
		}
		if tl != nil {
			tl.span(s.idx, tlExchange, tx, time.Now(), int64(h))
		}
		hasEvent := false
		if at, ok := s.k.NextEventAt(); ok {
			if at < h {
				c.asyncStep(s)
				continue
			}
			hasEvent = true
		}
		grant, ok := c.park(s, sc, hasEvent)
		if !ok {
			return
		}
		if grant != 0 {
			// One-shot horizon from the rendezvous (full-knowledge
			// frontier selection or the global-minimum fallback): step
			// directly — re-deriving from the published bounds would
			// discard exactly the knowledge the grant encodes.
			s.horizon = grant
			c.asyncStep(s)
		}
	}
}

// runAsync drives a run under the frontier-driven scheduler. Between
// rendezvous the workers own all shared state (each bridge is touched
// only by its two endpoint workers, through the bridge's own lock); at a
// rendezvous every live worker is parked under sc.mu, so this goroutine
// has exclusive access to everything — a global safe point, reached only
// when asynchronous progress is exhausted.
func (c *Coordinator) runAsync(limit sim.Time) {
	n := len(c.shards)
	sc := &sched{
		poke:   make([]bool, n),
		grant:  make([]sim.Time, n),
		parked: make([]bool, n),
		capped: make([]bool, n),
		dead:   make([]bool, n),
	}
	sc.workers = make([]*sync.Cond, n)
	for i := range sc.workers {
		sc.workers[i] = sync.NewCond(&sc.mu)
	}
	sc.rendez = sync.NewCond(&sc.mu)
	var wg sync.WaitGroup
	for _, s := range c.shards {
		wg.Add(1)
		go c.asyncWorker(s, sc, limit, &wg)
	}
	// Every exit below — quiescence, interrupt, re-panic — stops and
	// joins the workers, so no goroutine outlives Run.
	defer func() {
		sc.mu.Lock()
		sc.stop = true
		for _, w := range sc.workers {
			w.Signal()
		}
		sc.mu.Unlock()
		wg.Wait()
	}()

	m, tl := c.m, c.tl
	for {
		sc.mu.Lock()
		for !sc.readyLocked() {
			sc.rendez.Wait()
		}
		panics := sc.panics
		sc.panics = nil
		sc.mu.Unlock()
		var tr time.Time
		if tl != nil {
			tr = time.Now()
		}
		if m != nil {
			m.Rendezvous.Inc()
		}
		if len(panics) > 0 {
			if len(panics) == 1 {
				panic(panics[0])
			}
			panic(PanicSet(panics))
		}
		if c.intr.Load() {
			return
		}
		// Global safe point. Force-flush every bridge (delivering
		// anything an injection hook withheld) and recompute every
		// horizon with full knowledge — Frontier() sees the writer
		// kernel's clock and local dates, which the asynchronously
		// published bounds conservatively lag.
		c.flushBridges()
		work := c.selectByFrontiers(limit)
		if work == 0 {
			if work = c.fallback(limit); work == 0 {
				return // globally quiescent within the limit
			}
			c.ctr.fallbacks.Add(1)
			if m != nil {
				m.Fallbacks.Inc()
			}
			if tl != nil {
				tl.mark(tl.coordRow(), tlFallback, 0)
			}
		}
		granted := 0
		sc.mu.Lock()
		for _, s := range c.shards {
			if s.run && !sc.dead[s.idx] {
				sc.grant[s.idx] = s.horizon
				sc.workers[s.idx].Signal()
				granted++
			}
		}
		sc.mu.Unlock()
		if tl != nil {
			tl.span(tl.coordRow(), tlRendezvous, tr, time.Now(), int64(granted))
		}
	}
}
