package par

// Scheduler timeline tracing: per-worker ring buffers of
// park/wake/exchange/rendezvous/step records, dumpable as Chrome
// trace_event JSON — load the file in chrome://tracing or
// https://ui.perfetto.dev to see, on one horizontal track per shard,
// exactly when each worker exchanged, stepped, parked and was poked.
// "Why is shard 3 idle" becomes a picture instead of a printf session.
//
// Each ring is written by exactly one goroutine (a worker records only
// its own row; the rendezvous goroutine owns the last row), so
// recording takes no locks and — once a ring has wrapped — no
// allocations. Reading a Timeline is safe after the Run that fed it
// returned (the worker join provides the happens-before edge).

import (
	"bufio"
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// tlKind enumerates timeline record types.
type tlKind uint8

const (
	tlExchange   tlKind = iota // duration: one exchange+horizon pass; arg = derived horizon
	tlStep                     // duration: one Kernel.Step; arg = shard advance ordinal
	tlPark                     // duration: parked; arg = 1 when horizon-capped
	tlPokeHard                 // instant on the POKER's row; arg = poked peer
	tlPokeSoft                 // instant on the poker's row; arg = poked peer
	tlRendezvous               // duration on the coordinator row; arg = grants issued
	tlFallback                 // instant on the coordinator row
)

// tlEvent is one ring record; offsets are ns since the timeline start.
type tlEvent struct {
	kind   tlKind
	t0, t1 int64
	arg    int64
}

// tlRing is one row's bounded history: the most recent capacity events.
type tlRing struct {
	ev  []tlEvent
	pos int    // next overwrite slot once full
	n   uint64 // total ever recorded (n - len(ev) were dropped)
}

func (r *tlRing) add(e tlEvent) {
	if len(r.ev) < cap(r.ev) {
		r.ev = append(r.ev, e)
	} else {
		r.ev[r.pos] = e
		r.pos++
		if r.pos == len(r.ev) {
			r.pos = 0
		}
	}
	r.n++
}

// ordered returns the ring's events oldest-first.
func (r *tlRing) ordered() []tlEvent {
	if len(r.ev) < cap(r.ev) || r.pos == 0 {
		return r.ev
	}
	out := make([]tlEvent, 0, len(r.ev))
	out = append(out, r.ev[r.pos:]...)
	return append(out, r.ev[:r.pos]...)
}

// Timeline is one run's (or several consecutive runs') scheduler trace:
// one ring per shard worker plus one for the coordinator's rendezvous
// loop.
type Timeline struct {
	start time.Time
	names []string // row names; the last row is the coordinator
	rings []tlRing
}

// newTimeline sizes one ring of perWorker events per shard plus the
// coordinator row.
func (c *Coordinator) newTimeline(perWorker int) *Timeline {
	t := &Timeline{start: time.Now()}
	for _, s := range c.shards {
		t.names = append(t.names, fmt.Sprintf("shard %d %s", s.idx, s.k.Name()))
		t.rings = append(t.rings, tlRing{ev: make([]tlEvent, 0, perWorker)})
	}
	t.names = append(t.names, "coordinator")
	t.rings = append(t.rings, tlRing{ev: make([]tlEvent, 0, perWorker)})
	return t
}

// coordRow returns the coordinator row index.
func (t *Timeline) coordRow() int { return len(t.rings) - 1 }

// span records a duration event on row.
func (t *Timeline) span(row int, kind tlKind, t0, t1 time.Time, arg int64) {
	t.rings[row].add(tlEvent{kind: kind,
		t0: t0.Sub(t.start).Nanoseconds(), t1: t1.Sub(t.start).Nanoseconds(), arg: arg})
}

// mark records an instant event on row.
func (t *Timeline) mark(row int, kind tlKind, arg int64) {
	at := time.Since(t.start).Nanoseconds()
	t.rings[row].add(tlEvent{kind: kind, t0: at, t1: at, arg: arg})
}

// Events returns the total number of records currently retained.
func (t *Timeline) Events() int {
	n := 0
	for i := range t.rings {
		n += len(t.rings[i].ev)
	}
	return n
}

// kindMeta maps a record to its Chrome trace name and argument key.
func kindMeta(k tlKind) (name, argKey string) {
	switch k {
	case tlExchange:
		return "exchange", "horizon"
	case tlStep:
		return "step", "advance"
	case tlPark:
		return "park", "capped"
	case tlPokeHard:
		return "poke.hard", "peer"
	case tlPokeSoft:
		return "poke.soft", "peer"
	case tlRendezvous:
		return "rendezvous", "grants"
	case tlFallback:
		return "fallback", "tmin"
	}
	return "?", "arg"
}

// WriteChromeTrace encodes the timeline as Chrome trace_event JSON
// (the {"traceEvents":[...]} object form): one metadata thread_name
// record per row, then every retained record as a complete ("X")
// duration event or an instant ("i"), timestamps in microseconds.
// Loadable in chrome://tracing and ui.perfetto.dev.
func (t *Timeline) WriteChromeTrace(w io.Writer) error {
	b := bufio.NewWriter(w)
	b.WriteString(`{"traceEvents":[`)
	b.WriteString(`{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"par scheduler"}}`)
	for tid, name := range t.names {
		fmt.Fprintf(b, `,{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`, tid, name)
	}
	for tid := range t.rings {
		for _, e := range t.rings[tid].ordered() {
			name, argKey := kindMeta(e.kind)
			ts := float64(e.t0) / 1e3
			if e.t1 > e.t0 || e.kind == tlExchange || e.kind == tlStep ||
				e.kind == tlPark || e.kind == tlRendezvous {
				fmt.Fprintf(b, `,{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{%q:%d}}`,
					name, tid, ts, float64(e.t1-e.t0)/1e3, argKey, e.arg)
			} else {
				fmt.Fprintf(b, `,{"name":%q,"ph":"i","pid":1,"tid":%d,"ts":%.3f,"s":"t","args":{%q:%d}}`,
					name, tid, ts, argKey, e.arg)
			}
		}
	}
	b.WriteString("]}\n")
	return b.Flush()
}

// traceCapacity, when positive, arms automatic capture: every
// subsequent Run records a fresh Timeline of that many events per row
// and publishes it through LastTrace on completion.
var traceCapacity atomic.Int64

// lastTrace is the most recently completed auto-captured timeline.
var lastTrace atomic.Pointer[Timeline]

// SetTraceCapture arms (perWorker > 0) or disarms (0) automatic
// timeline capture for coordinator runs; the finished trace of the
// most recent Run is available from LastTrace. This is the switch
// behind the -simtrace benchmark flags and the simd debug endpoint.
func SetTraceCapture(perWorker int) { traceCapacity.Store(int64(perWorker)) }

// LastTrace returns the most recent auto-captured timeline, or nil.
func LastTrace() *Timeline { return lastTrace.Load() }

// SetTimeline attaches an explicit timeline for the next Run (tests,
// embedders that want a private trace); pass nil to detach. Must not
// be called while Run is in progress. An attached timeline suppresses
// auto-capture and accumulates across consecutive Runs.
func (c *Coordinator) SetTimeline(t *Timeline) {
	if c.running {
		panic("par: SetTimeline called while running")
	}
	c.tl = t
	c.tlOwned = true
}

// NewTimeline returns an empty timeline for SetTimeline, sized at
// perWorker retained events per row. Call after every AddShard.
func (c *Coordinator) NewTimeline(perWorker int) *Timeline {
	return c.newTimeline(perWorker)
}
