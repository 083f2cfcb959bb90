package sim

// Event is a SystemC-like notification primitive.
//
// Threads block on it with Process.WaitEvent; method processes are attached
// statically (Kernel.Method sensitivity list) or dynamically
// (Process.NextTriggerEvent). An event carries at most one pending delayed
// notification; following SystemC semantics, a new delayed notification
// only replaces the pending one if it would fire earlier, and an immediate
// notification overrides everything.
//
// # Subscriber-aware elision
//
// Channels that recompute an authoritative notification date at every state
// change (the Smart FIFO's NotEmpty/NotFull, the IRQ controller's event) use
// NotifyAtReplace. When nothing is subscribed — no parked thread, no
// static or dynamic method sensitivity — the notification is elided: no
// timed-queue traffic at all, just a recorded date. The record is turned
// back into a real notification the moment a subscriber attaches, or
// silently expires at the same boundary where the real notification would
// have fired and been lost. Every subscriber observes exactly the wakeups
// it always did, and the pure Kahn case (blocking Read/Write only, nobody
// listening) pays nothing.
//
// One deliberate divergence: an elided notification no longer keeps the
// kernel alive, so Run quiesces without advancing Now to dates only such
// unobservable notifications would have reached. A model's end date is
// driven by its processes, not by notifications nobody can see.
type Event struct {
	k    *Kernel
	name string

	// waiting holds dynamically attached processes: parked threads and
	// methods armed with NextTriggerEvent. Cleared on fire; the backing
	// array is recycled through spare to keep steady-state park/wake
	// cycles allocation-free.
	waiting []procRef
	spare   []procRef
	// static holds statically sensitive method processes. Never cleared.
	static []*Process

	// pend is the event's single reusable timed-queue entry (pend.ev is
	// this event); timedPending reports whether it is live. deltaPending
	// marks a pending delta notification.
	pend         timedEntry
	timedPending bool
	deltaPending bool

	// Elided-notification record (see NotifyAtReplace): the authoritative
	// date recorded while the event had no subscribers, plus the global
	// date and delta-promotion count at recording time, which bound the
	// window in which a would-have-been-delta notification is still
	// deliverable. elidedSeq is the timed-queue sequence number drawn at
	// recording time, so a record materialized later still fires in issue
	// order among same-date notifications.
	elided      bool
	elidedAt    Time
	elidedNow   Time
	elidedPromo uint64
	elidedSeq   uint64

	// onFire, if non-nil, runs first when the event fires. Internal
	// hook used by Signal's update phase. An event with an onFire hook
	// always counts as subscribed.
	onFire func()
}

// NewEvent creates an event bound to kernel k.
func NewEvent(k *Kernel, name string) *Event {
	e := &Event{k: k, name: name}
	e.pend.ev = e
	e.pend.index = notQueued
	return e
}

// Name returns the event's name.
func (e *Event) Name() string { return e.name }

// HasSubscribers reports whether anything can observe a notification of e:
// a parked thread, a statically sensitive method, a dynamically armed
// method, or an internal fire hook. Stale waiter entries (e.g. the losing
// events of a WaitAny) conservatively count until the next fire clears
// them.
func (e *Event) HasSubscribers() bool {
	return len(e.waiting) > 0 || len(e.static) > 0 || e.onFire != nil
}

func (e *Event) addWaiter(p *Process) {
	if e.elided {
		e.deliverElided()
	}
	e.waiting = append(e.waiting, procRef{p: p, gen: p.waitSeq, evWait: true})
}

func (e *Event) addDynMethod(p *Process, gen uint64) {
	if e.elided {
		e.deliverElided()
	}
	e.waiting = append(e.waiting, procRef{p: p, gen: gen})
}

// addStatic registers a statically sensitive method process.
func (e *Event) addStatic(p *Process) {
	if e.elided {
		e.deliverElided()
	}
	e.static = append(e.static, p)
}

// fire activates every attached process: dynamically waiting threads,
// dynamically armed methods whose trigger is still live, and statically
// sensitive methods that are not dynamically overridden.
func (e *Event) fire() {
	k := e.k
	if e.onFire != nil {
		e.onFire()
	}
	if len(e.waiting) > 0 {
		ws := e.waiting
		e.waiting = e.spare[:0]
		e.spare = ws
		for _, r := range ws {
			if r.valid() && k.runnableAdd(r.p) && !r.p.isMethod {
				r.p.wokenBy = e
			}
		}
	}
	for _, p := range e.static {
		if !p.dynArmed {
			k.runnableAdd(p)
		}
	}
}

// Notify triggers the event immediately, within the current evaluate phase.
// Processes activated this way run before the current delta cycle ends.
// Any pending delayed notification is cancelled (immediate wins).
func (e *Event) Notify() {
	e.k.stats.Notifications++
	e.CancelNotify()
	e.fire()
}

// NotifyDelta schedules a notification for the next delta cycle
// (notify(SC_ZERO_TIME)). It overrides a pending timed notification but is
// itself overridden by an immediate one. Every call counts one
// notification, also when a delta notification is already pending.
//
// NotifyDelta is small enough to inline: the Smart FIFO calls it on every
// access, and usually finds the delta notification already pending.
func (e *Event) NotifyDelta() {
	e.k.stats.Notifications++
	e.elided = false
	if !e.deltaPending {
		e.scheduleDelta()
	}
}

// scheduleDelta makes a delta notification pending, replacing a pending
// timed one. The caller has checked that none is pending yet; it is out
// of line so that NotifyDelta inlines.
//
//go:noinline
func (e *Event) scheduleDelta() {
	if e.timedPending {
		e.k.timed.remove(&e.pend)
		e.timedPending = false
	}
	e.deltaPending = true
	e.k.deltaEvents = append(e.k.deltaEvents, e)
}

// NotifyDelayed schedules a notification after duration d (delta cycle if
// d == 0). Per SystemC semantics it only replaces a pending notification
// that would fire later.
func (e *Event) NotifyDelayed(d Time) {
	if d < 0 {
		panic("sim: NotifyDelayed with negative duration")
	}
	if d == 0 {
		e.NotifyDelta()
		return
	}
	e.k.stats.Notifications++
	e.elided = false
	at := e.k.now + d
	if e.deltaPending {
		return // a delta notification fires earlier than any timed one
	}
	if e.timedPending && e.pend.at <= at {
		return
	}
	e.timedPending = true
	e.k.scheduleEntry(&e.pend, at)
}

// NotifyAt is NotifyDelayed in absolute time: schedule a notification at
// date at, which must not be in the global past.
func (e *Event) NotifyAt(at Time) {
	if at < e.k.now {
		panic("sim: NotifyAt in the past")
	}
	e.NotifyDelayed(at - e.k.now)
}

// NotifyAtReplace schedules a notification at absolute date at — at the
// next delta cycle if at is not in the future — REPLACING any pending
// notification instead of applying the earliest-wins rule. It is the
// primitive for channels that recompute the authoritative
// next-availability date at every state change: a stale earlier
// notification would be both spurious and, worse, would swallow the
// recomputed one.
//
// When the event has no subscribers the notification is elided (see the
// type comment): the hot path costs a few stores and no queue traffic.
func (e *Event) NotifyAtReplace(at Time) {
	k := e.k
	if !e.HasSubscribers() {
		// Nobody can observe the notification: record it instead of
		// scheduling. Any previously scheduled notification is
		// superseded (replace semantics), so drop it too.
		if e.timedPending {
			k.timed.remove(&e.pend)
			e.timedPending = false
		}
		e.deltaPending = false
		k.timedSeq++
		e.elided = true
		e.elidedAt = at
		e.elidedNow = k.now
		e.elidedPromo = k.deltaPromos
		e.elidedSeq = k.timedSeq
		return
	}
	e.elided = false
	k.stats.Notifications++
	if at <= k.now {
		// A pending delta notification already fires at this date
		// (and is never pending beside a timed one).
		if !e.deltaPending {
			e.scheduleDelta()
		}
		return
	}
	e.deltaPending = false
	e.timedPending = true
	k.scheduleEntry(&e.pend, at)
}

// elidedLive reports whether the elided notification record would still be
// pending had it been scheduled for real: a future-dated record is pending
// until its date; a record that would have been a delta notification is
// pending only until the next delta-promotion boundary of the same instant
// (after which the real notification would have fired, observed by nobody,
// and been lost — events are not persistent).
func (e *Event) elidedLive() bool {
	if !e.elided {
		return false
	}
	if e.elidedAt > e.k.now {
		return true
	}
	return e.elidedNow == e.k.now && e.elidedPromo == e.k.deltaPromos
}

// deliverElided converts the elided record into a real notification if it
// is still live, and consumes it either way. Called when a subscriber
// attaches. A timed delivery reuses the sequence number drawn when the
// record was made, so same-date notifications fire exactly in the order
// they were issued, as if none had been elided: the timed queue files the
// entry inside the same-date run whose seq range holds it.
func (e *Event) deliverElided() {
	live := e.elidedLive()
	at := e.elidedAt
	e.elided = false
	if !live {
		return
	}
	k := e.k
	k.stats.Notifications++
	if at <= k.now {
		if !e.deltaPending {
			e.scheduleDelta()
		}
		return
	}
	e.timedPending = true
	if e.pend.queued() {
		k.timed.remove(&e.pend)
	}
	e.pend.at = at
	e.pend.seq = e.elidedSeq
	k.timed.push(&e.pend)
}

// CancelNotify cancels any pending delayed or delta notification
// (sc_event::cancel), including an elided one.
func (e *Event) CancelNotify() {
	e.elided = false
	if e.timedPending {
		e.k.timed.remove(&e.pend)
		e.timedPending = false
	}
	e.deltaPending = false
}

// HasPending reports whether a delayed or delta notification is pending,
// counting a still-live elided record.
func (e *Event) HasPending() bool {
	return e.timedPending || e.deltaPending || e.elidedLive()
}

// PendingAt returns the date of the pending timed notification and true, or
// (0, false) if none is pending (a delta notification reports the current
// date). An elided record reports the date it would fire at.
func (e *Event) PendingAt() (Time, bool) {
	if e.deltaPending {
		return e.k.now, true
	}
	if e.timedPending {
		return e.pend.at, true
	}
	if e.elidedLive() {
		if e.elidedAt <= e.k.now {
			return e.k.now, true
		}
		return e.elidedAt, true
	}
	return 0, false
}
