package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"time"
)

// Span tracing of the harness's own calls into each layer (traced runs
// only). Spans stay in memory and are written once, at exit, as Chrome
// trace_event JSON; spans inside the program under test are a later
// issue, so a model run appears as the harness's call plus one
// synthesized kernel_run child cut from Result.Wall.

// span is one timed interval: a call the harness made into a layer.
type span struct {
	id     int
	parent int // 0 = root
	op     int // op ordinal shared by every span of one op (-1 outside ops)
	name   string
	start  time.Duration // since tracer start
	end    time.Duration
}

// tracer collects spans. The zero tracer pointer is a valid disabled
// tracer: begin returns a nil handle whose methods no-op, so untraced
// runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is a handle on an open span.
type spanRef struct {
	tr  *tracer
	idx int
}

// begin opens a span under parent (nil for a root span).
func (t *tracer) begin(name string, parent *spanRef, op int) *spanRef {
	if t == nil {
		return nil
	}
	pid := 0
	if parent != nil {
		pid = t.spans[parent.idx].id
	}
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: pid, op: op, name: name, start: time.Since(t.t0)})
	return &spanRef{tr: t, idx: len(t.spans) - 1}
}

// done closes the span.
func (s *spanRef) done() {
	if s != nil {
		s.tr.spans[s.idx].end = time.Since(s.tr.t0)
	}
}

// child records an already-measured interval of length d ending when
// the parent ends — how a kernel run reported only as a duration
// (Result.Wall) becomes a span. Call after done.
func (s *spanRef) child(name string, d time.Duration) {
	if s == nil {
		return
	}
	p := s.tr.spans[s.idx]
	start := p.end - d
	if start < p.start {
		start = p.start
	}
	s.tr.spans = append(s.tr.spans, span{id: len(s.tr.spans) + 1, parent: p.id, op: p.op, name: name, start: start, end: p.end})
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval covered by its direct children (overlapping children are
// merged first, so concurrent children are not subtracted twice).
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		ch := kids[s.id]
		sort.Slice(ch, func(i, j int) bool { return ch[i].start < ch[j].start })
		var covered time.Duration
		cur := s.start
		for _, c := range ch {
			lo, hi := max(c.start, cur), min(c.end, s.end)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.id] = max(s.end-s.start-covered, 0)
	}
	return out
}

// selfByName sums self time per span name: where the wall time of the
// traced run went, by layer boundary.
func selfByName(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.name] += self[s.id]
	}
	return out
}

// writeChromeTrace encodes the spans as Chrome trace_event JSON
// ({"traceEvents":[...]}, complete "X" events, microsecond timestamps),
// loadable in chrome://tracing and ui.perfetto.dev. Nesting is by time
// containment on one row, which the parent/child construction
// guarantees; id, parent and op ride along as args.
func writeChromeTrace(w io.Writer, process string, spans []span) error {
	b := bufio.NewWriter(w)
	fmt.Fprintf(b, `{"traceEvents":[{"name":"process_name","ph":"M","pid":1,"tid":1,"args":{"name":%q}}`, process)
	for _, s := range spans {
		fmt.Fprintf(b, `,{"name":%q,"ph":"X","pid":1,"tid":1,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"op":%d}}`,
			s.name, us(s.start), us(s.end-s.start), s.id, s.parent, s.op)
	}
	b.WriteString("]}\n")
	return b.Flush()
}
