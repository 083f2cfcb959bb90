package campaign

import (
	"context"
	"fmt"
	"sync"
)

// pointStream publishes per-point results in expansion order while the
// campaign still runs — the incremental feed behind the streaming
// results endpoint. Workers publish canonical completions (via
// Options.onPoint); the stream fans each one out to every expansion
// index sharing its hash, mirroring exactly the dedup-copy rule the
// buffered results document applies at the end, so a streamed row i is
// byte-identical to row i of the final document. Once the job settles
// the stream adopts that document's rows and drops its own, so a
// settled job keeps one row array.
type pointStream struct {
	// n is the expanded point count. It never changes, so NumPoints and
	// StreamPoint read it without the lock (len(rows) changes on settle).
	n int

	mu      sync.Mutex
	rows    []row  // live rows; the document's rows once settled
	ready   []bool // nil once settled
	settled bool
	changed chan struct{} // closed and replaced on every publish

	byRec map[*record][]int // nil once settled
}

// newPointStream builds the skeleton from the points' records: identity
// and the dedup flags are known up front, outcomes arrive later.
func newPointStream(recs []*record) *pointStream {
	s := &pointStream{
		n:       len(recs),
		rows:    make([]row, len(recs)),
		ready:   make([]bool, len(recs)),
		changed: make(chan struct{}),
		byRec:   map[*record][]int{},
	}
	for i, r := range recs {
		s.rows[i].rec = r
		if len(s.byRec[r]) > 0 {
			s.rows[i].flags = rowDedup
		}
		s.byRec[r] = append(s.byRec[r], i)
	}
	return s
}

// publish fans canonical row idx out to every index sharing its record,
// applying the dedup-copy rule of runPoints. Called from worker
// goroutines.
func (s *pointStream) publish(idx int, r row) {
	s.mu.Lock()
	for _, i := range s.byRec[r.rec] {
		if i == idx {
			s.rows[i] = r
		} else {
			s.rows[i].copyOutcome(&r)
		}
		s.ready[i] = true
	}
	ch := s.changed
	s.changed = make(chan struct{})
	s.mu.Unlock()
	close(ch)
}

// finish marks the stream settled (no more publishes will come), swaps
// the live rows for the results document's and wakes every waiter.
func (s *pointStream) finish(res *Results) {
	s.mu.Lock()
	s.settled = true
	s.rows, s.ready, s.byRec = res.rows, nil, nil
	ch := s.changed
	s.changed = make(chan struct{})
	s.mu.Unlock()
	close(ch)
}

// NumPoints returns the job's expanded point count (0 for recovered
// tombstones, which retained no expansion).
func (j *Job) NumPoints() int {
	if j.stream == nil {
		return 0
	}
	return j.stream.n
}

// PointReady reports, without blocking, whether StreamPoint(i) would
// answer at once: point i is complete or the job has settled. A
// streaming handler flushes what it has written before it would wait.
func (j *Job) PointReady(i int) bool {
	s := j.stream
	if s == nil || i < 0 || i >= s.n {
		return true // StreamPoint answers with an error at once
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.settled || s.ready[i]
}

// StreamPoint blocks until point i of the job is complete — or the job
// settles, at which point the final results document answers — and
// returns its report. Points stream in whatever order the caller asks;
// iterating i = 0..NumPoints()-1 yields the rows of the final document
// in order, incrementally, while the campaign still runs. The returned
// error is ctx's when the wait was cut short.
func (j *Job) StreamPoint(ctx context.Context, i int) (PointResult, error) {
	s := j.stream
	if s == nil {
		return PointResult{}, fmt.Errorf("campaign: job %s retained no point stream", j.id)
	}
	if i < 0 || i >= s.n {
		return PointResult{}, fmt.Errorf("campaign: point %d out of range (%d points)", i, s.n)
	}
	for {
		s.mu.Lock()
		// Settled, the rows are the document's: this also answers an
		// index a cancelled campaign never published (it was marked in
		// the final document only).
		if s.settled || s.ready[i] {
			pr := s.rows[i].view(i)
			s.mu.Unlock()
			return pr, nil
		}
		ch := s.changed
		s.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return PointResult{}, ctx.Err()
		}
	}
}
