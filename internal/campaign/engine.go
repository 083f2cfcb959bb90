package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/scenario"
	"repro/internal/store"
)

// Engine runs campaigns asynchronously and tracks them by id — the
// execution backend shared by the simd HTTP service and embedders. One
// engine owns one outcome cache, so campaigns submitted to it share work.
type Engine struct {
	opts   Options
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string
	seq    int
	active int
	closed bool
}

// ErrBusy rejects a submission when MaxActive campaigns are already
// running; the caller should retry later (simd maps it to 429 with a
// Retry-After).
var ErrBusy = fmt.Errorf("campaign: engine at max active campaigns")

// NewEngine returns an engine applying opts to every campaign. A nil
// Cache in opts is replaced by a fresh shared cache; per-job progress
// callbacks are managed by the engine (opts.OnProgress is ignored).
func NewEngine(opts Options) *Engine {
	if opts.Cache == nil {
		opts.Cache = NewCache()
	}
	opts.OnProgress = nil
	ctx, cancel := context.WithCancel(context.Background())
	return &Engine{opts: opts, ctx: ctx, cancel: cancel, jobs: map[string]*Job{}}
}

// JobState names a job's lifecycle stage.
type JobState string

const (
	// JobRunning means points are still executing.
	JobRunning JobState = "running"
	// JobDone means the results document is complete.
	JobDone JobState = "done"
	// JobFailed means the run aborted (engine shutdown mid-campaign).
	JobFailed JobState = "failed"
	// JobCancelled means the job was cancelled (Engine.Cancel or
	// shutdown); the partial results document — every point finished
	// before the cut, the rest marked cancelled — is retained.
	JobCancelled JobState = "cancelled"
)

// Job is one submitted campaign.
type Job struct {
	id      string
	name    string
	points  int // expanded
	total   int // unique
	resumed bool

	done     chan struct{}
	cancel   context.CancelFunc
	progress func() int
	live     *liveStats
	stream   *pointStream

	mu      sync.Mutex
	state   JobState
	results *Results
	err     error
}

// Status is a job snapshot for serving.
type Status struct {
	// ID addresses the job; Name echoes the set name.
	ID   string `json:"id"`
	Name string `json:"name,omitempty"`
	// State is running, done, cancelled or failed.
	State JobState `json:"state"`
	// Points counts the expanded points; Total counts the unique
	// simulations to execute (after hash dedup); Done counts the
	// finished ones.
	Points int `json:"points"`
	Total  int `json:"total"`
	Done   int `json:"done"`
	// Error reports a failed job's cause.
	Error string `json:"error,omitempty"`
	// Resumed marks a job recovered from the durable store after a
	// restart: its journaled points were served from the rebuilt cache
	// instead of recomputed.
	Resumed bool `json:"resumed,omitempty"`
	// Aggregate is present once the job is done.
	Aggregate *Aggregate `json:"aggregate,omitempty"`
}

// Submit validates, sizes and expands the set synchronously — malformed
// or oversize submissions fail here, before an id is allocated — then
// starts the campaign in the background. With a store configured the
// submission is journaled (id, sizes and the full spec document) before
// the first point runs, so a crash at any later moment leaves a
// resumable record.
func (e *Engine) Submit(set scenario.Set) (*Job, error) {
	return e.submit(set, "", false)
}

// submit is the Submit core. A non-empty id resumes a recovered job: the
// id is reused, the MaxActive gate is bypassed (a restart must never
// refuse its own backlog) and the submission is not re-journaled — the
// original record is already in the log.
func (e *Engine) submit(set scenario.Set, id string, resumed bool) (*Job, error) {
	opts := e.opts
	opts.fill()
	points, err := expand(set, opts)
	if err != nil {
		return nil, err
	}
	// Every job naming a hash shares the cache's one record for it; the
	// expansion itself is dropped once the job settles.
	recs := opts.Cache.intern(points)
	stream := newPointStream(recs)
	unique := len(stream.byRec)

	// Build the job completely — progress plumbing included — before it
	// becomes visible to Status() readers via the job table.
	var finished int
	var pmu sync.Mutex
	opts.OnProgress = func(done, total int) {
		pmu.Lock()
		finished = done
		pmu.Unlock()
	}
	j := &Job{
		name:    set.Name,
		points:  len(points),
		total:   unique,
		resumed: resumed,
		state:   JobRunning,
		done:    make(chan struct{}),
		progress: func() int {
			pmu.Lock()
			defer pmu.Unlock()
			return finished
		},
		live:   &liveStats{startedAt: time.Now()},
		stream: stream,
	}
	opts.live = j.live
	st := opts.Store
	opts.onPoint = func(idx int, r row) {
		// Journal deterministic outcomes only: errors carry no outcome,
		// degraded outcomes are not cacheable (the hash names the
		// sharded point, and the row's outcome is not the record's),
		// and cache hits are already in the log.
		if st != nil && r.err() == "" && r.flags&(rowOutcome|rowCached) == rowOutcome {
			st.PointCompletedJSON(r.rec.hash, r.rec.out.js)
		}
		j.stream.publish(idx, r)
	}

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, fmt.Errorf("campaign: engine is shut down")
	}
	if id == "" {
		if opts.MaxActive > 0 && e.active >= opts.MaxActive {
			e.mu.Unlock()
			return nil, ErrBusy
		}
		e.seq++
		j.id = fmt.Sprintf("c%d", e.seq)
		if st != nil {
			spec, err := json.Marshal(set)
			if err == nil {
				err = st.JobSubmitted(j.id, set.Name, len(points), unique, spec)
			}
			if err != nil {
				// A journal that cannot record the submission cannot
				// resume it either: refuse loudly rather than accept
				// silently-undurable work. (The id gap is harmless.)
				e.mu.Unlock()
				return nil, fmt.Errorf("campaign: journaling submission: %w", err)
			}
		}
	} else {
		j.id = id
	}
	e.active++
	e.jobs[j.id] = j
	e.order = append(e.order, j.id)
	e.wg.Add(1)
	e.mu.Unlock()

	if opts.Metrics != nil {
		opts.Metrics.ActiveCampaigns.Add(1)
	}
	jctx, jcancel := context.WithCancel(e.ctx)
	j.cancel = jcancel
	go func() {
		defer e.wg.Done()
		defer jcancel()
		res := runPoints(jctx, set.Name, points, recs, opts)
		if opts.Metrics != nil {
			opts.Metrics.ActiveCampaigns.Add(-1)
		}
		e.mu.Lock()
		e.active--
		e.mu.Unlock()
		j.mu.Lock()
		if err := jctx.Err(); err != nil {
			// Keep the partial document: every point that finished
			// before the cancellation carries its real outcome.
			j.state, j.err, j.results = JobCancelled, err, res
		} else {
			j.state, j.results = JobDone, res
			// Journal completion — not cancellation: a job cut short by
			// engine shutdown stays "running" in the log on purpose, so
			// the next boot resumes it. Only an explicit Cancel writes
			// the cancelled record (see Engine.Cancel).
			st.JobFinished(j.id)
		}
		j.mu.Unlock()
		j.stream.finish(res)
		close(j.done)
	}()
	return j, nil
}

// CancelStatus reports what Engine.Cancel found.
type CancelStatus int

const (
	// CancelUnknown means no job has the id.
	CancelUnknown CancelStatus = iota
	// CancelRequested means the job was running: the cooperative
	// interrupt was delivered and the cancellation journaled.
	CancelRequested
	// CancelAlreadySettled means the job had already finished (done,
	// cancelled or failed) — there was nothing to cancel, and no
	// cancellation record is journaled (the job keeps its real
	// terminal state across restarts).
	CancelAlreadySettled
)

// Cancel interrupts a running job cooperatively: in-flight points are
// aborted through the par guard and the job settles as JobCancelled
// with its partial results. The cancellation is journaled immediately —
// before the job settles — so a crash right after the request still
// refuses to resume the job on the next boot. Cancelling an
// already-settled job reports CancelAlreadySettled, distinct from
// cancelling a live one.
func (e *Engine) Cancel(id string) CancelStatus {
	e.mu.Lock()
	j, ok := e.jobs[id]
	e.mu.Unlock()
	if !ok {
		return CancelUnknown
	}
	j.mu.Lock()
	settled := j.state != JobRunning
	j.mu.Unlock()
	if settled {
		return CancelAlreadySettled
	}
	e.opts.Store.JobCancelled(id)
	j.cancel()
	return CancelRequested
}

// Recover seeds the engine from a journal scan: every recovered point
// outcome enters the shared cache (so no journaled point is ever
// recomputed), the id sequence resumes past the highest journaled id,
// and every job the crash cut short — or that finished, whose document
// is rebuilt instantly from cache — is resubmitted under its original
// id with the resumed flag set. Explicitly-cancelled jobs are NOT
// resumed; they reappear as settled tombstones. Returns the jobs that
// were resubmitted.
func (e *Engine) Recover(rec *store.Recovered) ([]*Job, error) {
	if rec == nil {
		return nil, nil
	}
	for hash, out := range rec.Points {
		e.opts.Cache.Put(hash, out)
	}
	e.mu.Lock()
	for _, jr := range rec.Jobs {
		if n, err := strconv.Atoi(strings.TrimPrefix(jr.ID, "c")); err == nil && n > e.seq {
			e.seq = n
		}
	}
	e.mu.Unlock()

	var resumed []*Job
	for _, jr := range rec.Jobs {
		switch jr.State {
		case store.JobCancelled:
			e.addTombstone(jr)
		default: // running or finished: resubmit; cached points are free
			set, err := scenario.ParseSet(jr.Spec)
			if err != nil {
				return resumed, fmt.Errorf("campaign: recovering job %s: %w", jr.ID, err)
			}
			j, err := e.submit(set, jr.ID, true)
			if err != nil {
				return resumed, fmt.Errorf("campaign: resuming job %s: %w", jr.ID, err)
			}
			resumed = append(resumed, j)
		}
	}
	return resumed, nil
}

// addTombstone registers a recovered, explicitly-cancelled job as a
// settled entry: listed with its terminal state, but its partial results
// document was not retained across the restart.
func (e *Engine) addTombstone(jr *store.JobRecord) {
	j := &Job{
		id: jr.ID, name: jr.Name, points: jr.Points, total: jr.Total,
		resumed: true,
		state:   JobCancelled,
		err:     fmt.Errorf("campaign: cancelled before restart; partial results not retained"),
		done:    make(chan struct{}),
		cancel:  func() {},
	}
	close(j.done)
	e.mu.Lock()
	e.jobs[j.id] = j
	e.order = append(e.order, j.id)
	e.mu.Unlock()
}

// Job returns the job registered under id.
func (e *Engine) Job(id string) (*Job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	return j, ok
}

// Jobs returns every job in submission order.
func (e *Engine) Jobs() []*Job {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*Job, len(e.order))
	for i, id := range e.order {
		out[i] = e.jobs[id]
	}
	return out
}

// Cache exposes the engine's shared outcome cache.
func (e *Engine) Cache() *Cache { return e.opts.Cache }

// Close rejects further submissions, cancels every running job — the
// in-flight points are interrupted cooperatively through the par guard —
// and waits for all jobs to settle. Cancelled jobs keep their partial
// results documents.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.cancel()
	e.wg.Wait()
}

// ID returns the job id.
func (j *Job) ID() string { return j.id }

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Status{ID: j.id, Name: j.name, State: j.state, Points: j.points, Total: j.total, Resumed: j.resumed}
	switch j.state {
	case JobDone:
		s.Done = j.total
		s.Aggregate = &j.results.Aggregate
	case JobCancelled:
		s.Error = j.err.Error()
		if j.results != nil {
			s.Done = j.results.Aggregate.Points - j.results.Aggregate.Errors
			s.Aggregate = &j.results.Aggregate
		}
	case JobFailed:
		s.Error = j.err.Error()
	default:
		if j.progress != nil {
			s.Done = j.progress()
		}
	}
	return s
}

// Results returns the finished document, or ok=false while running.
func (j *Job) Results() (res *Results, err error, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == JobRunning {
		return nil, nil, false
	}
	return j.results, j.err, true
}

// Wait blocks until the job settles (or ctx expires) and returns the
// results or the job's failure.
func (j *Job) Wait(ctx context.Context) (*Results, error) {
	select {
	case <-j.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	res, err, _ := j.Results()
	return res, err
}
