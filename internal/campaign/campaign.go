// Package campaign executes expanded scenario sets — many independent
// simulations, not one — across a pool of workers, and aggregates and
// serializes the results. It is the design-space-exploration layer the
// paper's cheap what-if simulation exists to feed: a Spec matrix over
// FIFO depths, quanta, shard counts and topologies becomes one kernel
// run per point, fanned out over GOMAXPROCS workers (each point builds
// its own sim.Kernel(s), and sharded points additionally parallelize
// inside via internal/par).
//
// Guarantees:
//
//   - deterministic results: points are identified and cached by their
//     canonical scenario hash, executed at most once per campaign, and
//     reported in expansion order — the results document is byte-identical
//     whether the campaign ran on 1 worker or N (wall-clock timing is
//     carried separately and omitted from the deterministic document);
//   - spot-checked accuracy: a deterministic sample of points (every
//     CheckEvery-th expanded index) re-runs through the model's §IV-A
//     trace-equivalence oracle (decoupled vs reference, compared with
//     trace.Diff after date reordering);
//   - shared caching: an Engine's Cache carries outcomes and spot-check
//     verdicts across campaigns, so overlapping sweeps only pay for new
//     points; every job shares the Cache's one record per hash instead
//     of copying it;
//   - fault tolerance: every failure mode of a point — panic, wall-clock
//     deadline (PointDeadline), no-simulated-time-progress stall
//     (StallWindow) — becomes a structured per-point error, never a hang.
//     Transient failures retry with exponential backoff up to MaxAttempts;
//     a sharded point whose attempts are exhausted is quarantined into a
//     single-kernel rerun (flagged Degraded, date-exact by the
//     coordinator-equivalence claim). Cancelling the context stops the
//     campaign cooperatively and returns the partial results document.
package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/par"
	"repro/internal/scenario"
	"repro/internal/store"
)

// Options tunes one campaign run.
type Options struct {
	// Workers is the pool size; 0 means GOMAXPROCS.
	Workers int
	// CheckEvery samples the trace-equivalence spot check: every k-th
	// expanded point (by its first-occurrence index) is verified against
	// the model's reference build, or answered by the verdict the Cache
	// kept for its hash. 0 disables checking.
	CheckEvery int
	// MaxPoints bounds the expansion (a submission guard for the HTTP
	// front-end); 0 means the 10000 default.
	MaxPoints int
	// Cache, when non-nil, is consulted before running a point and
	// updated after; share one across campaigns to skip repeated points.
	Cache *Cache
	// OnProgress, when non-nil, is called after each completed point
	// with the number of finished points and the total. Calls may come
	// from worker goroutines.
	OnProgress func(done, total int)

	// PointDeadline bounds each attempt's wall-clock time: a point still
	// running when it expires is interrupted cooperatively (par guard)
	// and reported as a deadline failure with a stall diagnostic — or
	// retried/degraded, see MaxAttempts. 0 means no deadline.
	PointDeadline time.Duration
	// StallWindow arms the no-progress watchdog inside each attempt: an
	// attempt whose kernels dispatch nothing for a full window is
	// interrupted with par.ErrStalled. 0 disables the watchdog.
	StallWindow time.Duration
	// MaxAttempts bounds the executions of a transiently-failing point
	// (panic, stall, deadline): after the first failure the point is
	// retried with exponential backoff until it succeeds or the budget
	// is spent. 0 or 1 means a single attempt.
	MaxAttempts int
	// RetryBackoff is the sleep before the first retry, doubling per
	// attempt; 0 means 50ms. Only meaningful with MaxAttempts > 1.
	RetryBackoff time.Duration
	// NoDegrade disables the sharded→single-kernel degradation rerun
	// that otherwise follows a transiently-failed sharded point.
	NoDegrade bool
	// ProfileGuided closes the measurement→placement loop across the
	// whole campaign: every sharded point of a partitioner-aware model
	// is rewritten to the "profiled" netlist partitioner, and before its
	// sharded execution the point's single-kernel twin runs once through
	// the shared cache (it is the same dated run, so it is
	// cache-eligible and dedups against explicit single-kernel points),
	// leaving netlist.Elaborate's profile cache warm. The rewrite is a
	// deterministic function of the expansion, so results stay
	// byte-identical across worker counts.
	ProfileGuided bool
	// MaxActive bounds the campaigns an Engine runs concurrently:
	// Submit returns ErrBusy beyond it. 0 means unbounded. Ignored by
	// the synchronous Run.
	MaxActive int
	// Metrics, when non-nil, receives per-point execution counters
	// (see NewMetrics); a nil sink costs nothing.
	Metrics *Metrics
	// Store, when non-nil, is the durable campaign journal: Engine
	// submissions, deterministic point outcomes and terminal states are
	// appended to it, and Engine.Recover rebuilds the job table and the
	// cross-restart cache from it after a crash or restart. Ignored by
	// the synchronous Run (which has no job identity to journal).
	Store *store.Store

	// live receives a running job's counters for the stats endpoint;
	// installed by Engine.Submit, nil for synchronous Run.
	live *liveStats
	// onPoint, when non-nil, receives a snapshot of each canonical
	// point's row right after its worker finishes it (calls come from
	// worker goroutines, one per unique hash, in completion order).
	// Installed by Engine.Submit for journaling and result streaming.
	onPoint func(idx int, r row)
}

func (o *Options) fill() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxPoints <= 0 {
		o.MaxPoints = 10000
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 1
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 50 * time.Millisecond
	}
}

// PointResult is one expanded point's report: a view of a settled or
// streamed row, built on demand. All fields except WallMS are
// deterministic functions of the spec.
type PointResult struct {
	// Index is the point's position in expansion order.
	Index int `json:"index"`
	// Model and Params echo the concrete scenario; Hash is its
	// canonical content hash. Params is the canonical params JSON, the
	// params part of the bytes the hash was computed over (DecodeParams
	// decodes it).
	Model  string          `json:"model"`
	Hash   string          `json:"hash"`
	Params json.RawMessage `json:"params"`
	// Outcome is the simulation result's canonical JSON (nil when Err
	// is set; DecodeOutcome decodes it). Params and Outcome are shared,
	// not copied: duplicates, cache hits and every job naming the hash
	// view the bytes the Cache's record holds, so they are read-only.
	Outcome json.RawMessage `json:"outcome,omitempty"`
	// Err reports a per-point failure (bad parameters, model panic).
	Err string `json:"error,omitempty"`
	// Dedup marks a point whose hash already appeared at a lower index;
	// its outcome is copied from that canonical point.
	Dedup bool `json:"dedup,omitempty"`
	// Cached marks a point whose outcome was served from the shared
	// cache (in-memory or rebuilt from the durable store) instead of
	// executing. Like WallMS it depends on what ran before, so it is
	// zeroed in the canonical results document; the crash-recovery
	// tests read it (with ?wall=1) to prove resumed points were not
	// recomputed.
	Cached bool `json:"cached,omitempty"`
	// Checked marks a point that ran the trace-equivalence spot check;
	// CheckDiff holds the first difference ("" = traces identical).
	Checked   bool   `json:"checked,omitempty"`
	CheckDiff string `json:"check_diff,omitempty"`
	// Degraded marks a sharded point whose outcome comes from the
	// single-kernel quarantine rerun after its sharded attempts failed
	// — date-exact by the coordinator-equivalence claim, with the shard
	// counters reflecting the rerun. Outcome provenance: it stays in
	// the canonical document (healthy runs never set it).
	Degraded bool `json:"degraded,omitempty"`
	// Stall carries the structured stall diagnostic of the last failed
	// attempt (deadline or watchdog), when one was produced. Like
	// Degraded it stays in the canonical document.
	Stall *par.StallDiagnostic `json:"stall,omitempty"`
	// Attempts counts the executions the point needed (retries plus the
	// degradation rerun): present only when more than one. Wall-clock
	// dependent like WallMS, so it is zeroed in the canonical results
	// document (see Results.JSON).
	Attempts int `json:"attempts,omitempty"`
	// WallMS is the point's host execution time. Nondeterministic:
	// zeroed in the canonical results document (see Results.JSON).
	WallMS float64 `json:"wall_ms,omitempty"`
	// ProfileWallMS is the host time of the single-kernel profiling
	// pre-run a profile-guided campaign executed for this point (0 when
	// the twin was served from cache). Nondeterministic like WallMS:
	// zeroed in the canonical results document.
	ProfileWallMS float64 `json:"profile_wall_ms,omitempty"`
}

// DecodeParams decodes the point's canonical params JSON (numbers
// decode as float64).
func (p *PointResult) DecodeParams() (scenario.Params, error) {
	var params scenario.Params
	err := json.Unmarshal(p.Params, &params)
	return params, err
}

// DecodeOutcome decodes the point's canonical outcome JSON; nil when the
// point has no outcome.
func (p *PointResult) DecodeOutcome() (*scenario.Outcome, error) {
	if p.Outcome == nil {
		return nil, nil
	}
	out := new(scenario.Outcome)
	if err := json.Unmarshal(p.Outcome, out); err != nil {
		return nil, err
	}
	return out, nil
}

// row is what a job keeps of one point: the shared record and what this
// execution alone measured. PointResult is its view.
type row struct {
	rec           *record
	wallMS        float64
	profileWallMS float64
	attempts      int32
	flags         rowFlags
	// x holds the rare fields; nil on a healthy point.
	x *rowExtra
}

type rowFlags uint8

const (
	// rowOutcome marks a row whose outcome is its record's.
	rowOutcome rowFlags = 1 << iota
	rowDedup
	rowCached
	rowChecked
	rowDegraded
)

// rowExtra holds a row's rare fields.
type rowExtra struct {
	err       string
	checkDiff string
	stall     *par.StallDiagnostic
	// out is a degraded point's own outcome: the rerun's counters
	// differ from the hash's, so it is not the record's.
	out *canonOutcome
}

// ext returns r's rare fields, allocating them on first use.
func (r *row) ext() *rowExtra {
	if r.x == nil {
		r.x = &rowExtra{}
	}
	return r.x
}

// err returns the row's failure, "" when it has none.
func (r *row) err() string {
	if r.x == nil {
		return ""
	}
	return r.x.err
}

// outcome returns the row's outcome, nil when it has none.
func (r *row) outcome() *canonOutcome {
	if r.flags&rowOutcome != 0 {
		return &r.rec.out
	}
	if r.x != nil {
		return r.x.out
	}
	return nil
}

// copyOutcome gives a duplicate its canonical point's outcome and
// provenance (error, degradation, stall diagnostic). Checks are not
// repeated (Checked stays false so the flag is deterministic), and
// Attempts stays zero — the duplicate itself executed nothing.
func (r *row) copyOutcome(src *row) {
	r.flags = r.flags&^(rowOutcome|rowDegraded) | src.flags&(rowOutcome|rowDegraded)
	r.x = nil
	if x := src.x; x != nil && (x.err != "" || x.stall != nil || x.out != nil) {
		r.x = &rowExtra{err: x.err, stall: x.stall, out: x.out}
	}
}

// view renders row i as a PointResult, sharing the record's bytes.
func (r *row) view(i int) PointResult {
	p := PointResult{
		Index:         i,
		Model:         r.rec.model,
		Hash:          r.rec.hash,
		Params:        r.rec.params,
		Dedup:         r.flags&rowDedup != 0,
		Cached:        r.flags&rowCached != 0,
		Checked:       r.flags&rowChecked != 0,
		Degraded:      r.flags&rowDegraded != 0,
		Attempts:      int(r.attempts),
		WallMS:        r.wallMS,
		ProfileWallMS: r.profileWallMS,
	}
	if out := r.outcome(); out != nil {
		p.Outcome = out.js
	}
	if x := r.x; x != nil {
		p.Err, p.CheckDiff, p.Stall = x.err, x.checkDiff, x.stall
	}
	return p
}

// Aggregate summarizes a campaign deterministically.
type Aggregate struct {
	// Points counts expanded points; Unique counts distinct hashes.
	Points int `json:"points"`
	Unique int `json:"unique"`
	// Models lists the distinct model names, sorted.
	Models []string `json:"models"`
	// Errors counts failed points; Checked and CheckFailures count the
	// trace-equivalence spot checks and their failures.
	Errors        int `json:"errors"`
	Checked       int `json:"checked"`
	CheckFailures int `json:"check_failures"`
	// Degraded counts points served by the single-kernel quarantine
	// rerun; Stalled counts points whose final state carries a stall
	// diagnostic (deadline or watchdog interrupt). Zero — and omitted —
	// on healthy campaigns.
	Degraded int `json:"degraded,omitempty"`
	Stalled  int `json:"stalled,omitempty"`
	// MinSimEndNS/MaxSimEndNS/MeanSimEndNS summarize the final
	// simulated dates across successful points.
	MinSimEndNS  int64   `json:"min_sim_end_ns"`
	MaxSimEndNS  int64   `json:"max_sim_end_ns"`
	MeanSimEndNS float64 `json:"mean_sim_end_ns"`
	// TotalCtxSwitches sums the kernel dispatch counters: the paper's
	// simulation-cost metric, summed over the whole design space.
	TotalCtxSwitches uint64 `json:"total_ctx_switches"`
}

// Timing is the nondeterministic half of a campaign report.
type Timing struct {
	// WallMS is the whole campaign's host duration; PointWallMS sums
	// the per-point durations (compute time if run serially).
	WallMS      float64 `json:"wall_ms"`
	PointWallMS float64 `json:"point_wall_ms"`
	// SpeedupX is PointWallMS / WallMS: the realized parallelism.
	SpeedupX float64 `json:"speedup_x"`
	// Workers echoes the pool size; CacheHits counts points served
	// from the shared engine cache.
	Workers   int `json:"workers"`
	CacheHits int `json:"cache_hits"`
}

// Results is a full campaign report. It keeps one compact row per
// expanded point; Points builds PointResult views of them.
type Results struct {
	// Name echoes the set name.
	Name string
	// Aggregate is the deterministic summary.
	Aggregate Aggregate
	// Timing is the nondeterministic summary; omitted by Results.JSON
	// unless requested.
	Timing *Timing

	rows []row // one per expanded point, in expansion order
}

// Points returns a view of every point, in expansion order: a fresh
// slice whose Params and Outcome share the records' bytes.
func (r *Results) Points() []PointResult {
	pts := make([]PointResult, len(r.rows))
	for i := range r.rows {
		pts[i] = r.rows[i].view(i)
	}
	return pts
}

// Run executes the set and blocks until every point completed (or ctx was
// cancelled, which marks the remaining points as errors). The returned
// error covers submission-level problems only — validation, expansion,
// oversize — while per-point failures land in the results.
func Run(ctx context.Context, set scenario.Set, opt Options) (*Results, error) {
	opt.fill()
	points, err := expand(set, opt)
	if err != nil {
		return nil, err
	}
	return runPoints(ctx, set.Name, points, opt.Cache.intern(points), opt), nil
}

// expand sizes the expansion before materializing it — the count (and
// the scenario.MaxExpansion overflow guard inside it) runs first, so an
// oversize matrix in a small JSON body is rejected without paying for a
// single point — and applies the profile-guided rewrite.
func expand(set scenario.Set, opt Options) ([]scenario.Point, error) {
	n, err := set.NumPoints()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("campaign: the set expands to no points")
	}
	if n > opt.MaxPoints {
		return nil, fmt.Errorf("campaign: %d points exceed the %d-point limit", n, opt.MaxPoints)
	}
	points, err := set.Expand()
	if err == nil && opt.ProfileGuided {
		points = profileGuidedPoints(points)
	}
	return points, err
}

// runPoints is the engine core: opt must be filled, points expanded and
// within limits, and recs their records.
func runPoints(ctx context.Context, name string, points []scenario.Point, recs []*record, opt Options) *Results {
	res := &Results{Name: name, rows: make([]row, len(points))}
	// Group by record: the lowest index computes, the rest copy.
	canonical := map[*record]int{}
	var uniques []int
	for i, r := range recs {
		res.rows[i].rec = r
		if _, seen := canonical[r]; !seen {
			canonical[r] = i
			uniques = append(uniques, i)
		} else {
			res.rows[i].flags = rowDedup
		}
	}

	var (
		done      atomic.Int64
		cacheHits atomic.Int64
		wg        sync.WaitGroup
		jobs      = make(chan int)
	)
	start := time.Now()
	for w := 0; w < opt.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				if opt.Metrics != nil {
					opt.Metrics.ActiveWorkers.Add(1)
				}
				runOne(ctx, &res.rows[idx], idx, points[idx], opt, &cacheHits)
				if opt.Metrics != nil {
					opt.Metrics.ActiveWorkers.Add(-1)
				}
				if opt.onPoint != nil {
					opt.onPoint(idx, res.rows[idx])
				}
				n := int(done.Add(1))
				if opt.OnProgress != nil {
					opt.OnProgress(n, len(uniques))
				}
			}
		}()
	}
	for _, idx := range uniques {
		jobs <- idx
	}
	close(jobs)
	wg.Wait()

	for i := range res.rows {
		if r := &res.rows[i]; r.flags&rowDedup != 0 {
			r.copyOutcome(&res.rows[canonical[r.rec]])
		}
	}

	res.Aggregate = aggregate(res.rows)
	wall := time.Since(start)
	t := &Timing{
		WallMS:    float64(wall.Microseconds()) / 1000,
		Workers:   opt.Workers,
		CacheHits: int(cacheHits.Load()),
	}
	for i := range res.rows {
		t.PointWallMS += res.rows[i].wallMS
	}
	if t.WallMS > 0 {
		t.SpeedupX = t.PointWallMS / t.WallMS
	}
	res.Timing = t
	return res
}

// ErrAbandoned marks an attempt whose model kept running past its
// cancellation plus the abandon grace: the attempt goroutine is left
// behind (it holds no shared state) and the attempt fails. A model that
// honours the cooperative interrupt never produces it.
var ErrAbandoned = fmt.Errorf("campaign: attempt abandoned (model did not stop within the abandon grace)")

// panicError wraps a recovered model panic so the retry logic can
// recognize it (transient: chaos-induced or scheduling-dependent panics
// deserve a retry; deterministic config panics just fail again).
type panicError struct{ val any }

func (e *panicError) Error() string { return fmt.Sprintf("panic: %v", e.val) }

// transient reports whether an attempt failure is worth retrying or
// degrading: panics, stalls, deadline expiries and abandonments.
// Plain model errors (bad parameters) and the parent context's own
// cancellation are final.
func transient(err error) bool {
	var pe *panicError
	return errors.As(err, &pe) ||
		errors.Is(err, par.ErrStalled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrAbandoned)
}

// profileGuidedPoints rewrites every sharded point of a
// partitioner-aware model (a model whose key set includes
// "partitioner") to the "profiled" partitioner, recomputing the
// canonical hash. A pure, deterministic function of the expansion:
// single-kernel points and models without a partitioner axis pass
// through untouched.
func profileGuidedPoints(points []scenario.Point) []scenario.Point {
	out := make([]scenario.Point, len(points))
	for i, pt := range points {
		out[i] = pt
		if shardsOf(pt.Params) < 2 {
			continue
		}
		m, ok := scenario.Lookup(pt.Model)
		if !ok || !hasKey(m.Keys, "partitioner") {
			continue
		}
		params := pt.Params.Clone()
		params["partitioner"] = "profiled"
		hash, err := scenario.HashPoint(pt.Model, params)
		if err != nil {
			continue // unreachable: the original params hashed
		}
		out[i].Params = params
		out[i].Hash = hash
	}
	return out
}

func hasKey(keys []string, k string) bool {
	for _, key := range keys {
		if key == k {
			return true
		}
	}
	return false
}

// profilePoint executes a profile-guided point's single-kernel twin —
// the measurement phase. The twin is the same dated run (outcomes and
// profiles are schedule-independent), so it flows through the shared
// outcome cache like any point and dedups against explicit
// single-kernel points of the sweep; executing it leaves
// netlist.Elaborate's process-wide profile cache warm for the sharded
// run that follows.
// Twin failures are deliberately non-fatal: the sharded run re-profiles
// inline if it must.
func profilePoint(ctx context.Context, m scenario.Model, pt scenario.Point, opt Options, r *row, cacheHits *atomic.Int64) {
	params := pt.Params.Clone()
	params["shards"] = 1
	delete(params, "partitioner")
	hash, err := scenario.HashPoint(pt.Model, params)
	if err != nil {
		return
	}
	if _, hit := opt.Cache.Get(hash); hit {
		cacheHits.Add(1)
		return
	}
	start := time.Now()
	out, err := safeRun(ctx, m, params, opt)
	if err != nil {
		return
	}
	r.profileWallMS = float64(time.Since(start).Microseconds()) / 1000
	if opt.Metrics != nil {
		opt.Metrics.ProfileRuns.Inc()
	}
	opt.Cache.Put(hash, out)
}

// shardsOf reads a point's "shards" parameter (the convention every
// shardable model follows); 1 when absent or malformed.
func shardsOf(p scenario.Params) int {
	r := scenario.NewReader(p)
	n := r.Int("shards", 1)
	if r.Err() != nil || n < 1 {
		return 1
	}
	return n
}

// abandonGrace is how long, past an attempt's cancellation, runAttempt
// waits for a model that does not honour the cooperative interrupt
// before abandoning its goroutine and failing the attempt.
const abandonGrace = 5 * time.Second

// runAttempt executes one model call under the point deadline, the
// stall watchdog and the abandon grace. The default configuration (no
// deadline, non-cancellable parent) stays on the calling goroutine with
// zero overhead; otherwise the attempt runs on its own goroutine so a
// model that ignores the interrupt can be abandoned instead of wedging
// the worker. An abandoned attempt's goroutine writes only to its
// (buffered, private) channel, never to shared state.
func runAttempt(ctx context.Context, opt Options, call func(context.Context) error) error {
	actx := ctx
	if opt.StallWindow > 0 {
		actx = par.WithStallWindow(actx, opt.StallWindow)
	}
	if opt.PointDeadline <= 0 {
		if ctx.Done() == nil {
			return call(actx)
		}
		// Cancellable parent but no deadline: still run on a goroutine
		// so cancellation plus grace cannot wedge the worker forever.
	} else {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(actx, opt.PointDeadline)
		defer cancel()
	}
	res := make(chan error, 1)
	go func() { res <- call(actx) }()
	select {
	case err := <-res:
		return err
	case <-actx.Done():
	}
	// The attempt's context ended; give the cooperative interrupt a
	// grace period to unwind the run before abandoning the goroutine.
	timer := time.NewTimer(abandonGrace)
	defer timer.Stop()
	select {
	case err := <-res:
		return err
	case <-timer.C:
		return fmt.Errorf("%w after %v + %v grace", ErrAbandoned, opt.PointDeadline, abandonGrace)
	}
}

// runOne executes (or fetches) one canonical point, row idx, and its
// sampled check, applying the robustness policy: bounded retries with
// exponential backoff for transient failures, then — for sharded
// points — one quarantined single-kernel degradation rerun.
func runOne(ctx context.Context, r *row, idx int, pt scenario.Point, opt Options, cacheHits *atomic.Int64) {
	opt.Cache.fillParams(r.rec, pt.Params)
	model, ok := scenario.Lookup(pt.Model)
	if !ok { // unreachable after Expand validation; belt and braces
		r.ext().err = fmt.Sprintf("unknown model %q", pt.Model)
		return
	}
	if err := ctx.Err(); err != nil {
		r.ext().err = fmt.Sprintf("cancelled: %v", err)
		return
	}
	if opt.Metrics != nil {
		opt.Metrics.PointsStarted.Inc()
	}
	if opt.live != nil {
		opt.live.started.Add(1)
	}
	start := time.Now()
	if opt.Cache.hit(r.rec) {
		r.flags |= rowOutcome | rowCached
		cacheHits.Add(1)
	} else {
		if opt.ProfileGuided && shardsOf(pt.Params) > 1 {
			profilePoint(ctx, model, pt, opt, r, cacheHits)
		}
		out, err := runPoint(ctx, model, pt.Params, opt, r)
		switch {
		case err != nil:
			r.ext().err = err.Error()
		case r.flags&rowDegraded != 0:
			// A degraded outcome is not cached: the hash names the
			// sharded point, and the rerun's shard counters differ.
			co := newCanonOutcome(&out)
			r.ext().out = &co
		default:
			opt.Cache.share(r.rec, &out)
			r.flags |= rowOutcome
		}
	}
	if r.err() == "" && opt.CheckEvery > 0 && idx%opt.CheckEvery == 0 && model.Check != nil {
		// The verdict is a function of the hash like the outcome: a
		// kept one is reused, and only a completed check is kept (an
		// errored one runs again next time).
		diff, ok := opt.Cache.verdict(r.rec)
		if !ok {
			var err error
			if diff, err = safeCheck(ctx, model, pt.Params, opt); err != nil {
				r.ext().err = fmt.Sprintf("check: %v", err)
			} else {
				opt.Cache.keepVerdict(r.rec, diff)
			}
		}
		if r.err() == "" {
			r.flags |= rowChecked
			if diff != "" {
				r.ext().checkDiff = diff
			}
		}
	}
	r.wallMS = float64(time.Since(start).Microseconds()) / 1000
	observePoint(opt.Metrics, opt.live, r)
}

// runPoint drives the attempt loop for one canonical point, recording
// attempt counts and stall diagnostics into r as it goes.
func runPoint(ctx context.Context, m scenario.Model, params scenario.Params, opt Options, r *row) (scenario.Outcome, error) {
	noteStall := func(err error) {
		var se *par.StallError
		if errors.As(err, &se) {
			r.ext().stall = &se.Diag
		}
	}
	attempts := 0
	backoff := opt.RetryBackoff
	var lastErr error
	for attempts < opt.MaxAttempts {
		if attempts > 0 {
			// Exponential backoff between attempts, cut short by the
			// campaign context.
			t := time.NewTimer(backoff)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return scenario.Outcome{}, lastErr
			}
			backoff *= 2
		}
		attempts++
		out, err := safeRun(ctx, m, params, opt)
		if err == nil {
			if attempts > 1 {
				r.attempts = int32(attempts)
			}
			return out, nil
		}
		noteStall(err)
		lastErr = err
		if !transient(err) || ctx.Err() != nil {
			r.attempts = int32(attempts)
			return scenario.Outcome{}, err
		}
	}
	// Quarantine: a sharded point that kept failing transiently is
	// re-run on a single kernel — date-exact by the PR 2/5 equivalence
	// pins, and immune to coordinator-level faults.
	if !opt.NoDegrade && shardsOf(params) > 1 {
		p1 := params.Clone()
		p1["shards"] = 1
		attempts++
		out, err := safeRun(ctx, m, p1, opt)
		r.attempts = int32(attempts)
		if err == nil {
			r.flags |= rowDegraded
			return out, nil
		}
		noteStall(err)
		return scenario.Outcome{}, fmt.Errorf("%v (degraded rerun also failed: %v)", lastErr, err)
	}
	r.attempts = int32(attempts)
	return scenario.Outcome{}, lastErr
}

// safeRun runs the model once under the attempt guards, converting a
// panic (bad config deep in a builder, an injected shard fault) into an
// error instead of killing the whole campaign.
func safeRun(ctx context.Context, m scenario.Model, p scenario.Params, opt Options) (out scenario.Outcome, err error) {
	err = runAttempt(ctx, opt, func(actx context.Context) (aerr error) {
		defer func() {
			if r := recover(); r != nil {
				aerr = &panicError{r}
			}
		}()
		out, aerr = m.Run(actx, p)
		return aerr
	})
	if err != nil {
		return scenario.Outcome{}, err
	}
	return out, nil
}

// safeCheck runs the spot check under the same guards (one attempt: the
// check is advisory and never retried or degraded).
func safeCheck(ctx context.Context, m scenario.Model, p scenario.Params, opt Options) (diff string, err error) {
	err = runAttempt(ctx, opt, func(actx context.Context) (aerr error) {
		defer func() {
			if r := recover(); r != nil {
				aerr = &panicError{r}
			}
		}()
		diff, aerr = m.Check(actx, p)
		return aerr
	})
	if err != nil {
		return "", err
	}
	return diff, nil
}

// aggregate folds the per-point rows, iterating in index order so the
// float mean is reproducible. It reads the records' scalars and decodes
// nothing.
func aggregate(rows []row) Aggregate {
	a := Aggregate{Points: len(rows)}
	models := map[string]bool{}
	var sum float64
	var n int
	for i := range rows {
		r := &rows[i]
		models[r.rec.model] = true
		if r.flags&rowDedup == 0 {
			a.Unique++
		}
		if r.flags&rowDegraded != 0 {
			a.Degraded++
		}
		if r.x != nil && r.x.stall != nil {
			a.Stalled++
		}
		if r.err() != "" {
			a.Errors++
			continue
		}
		if r.flags&rowChecked != 0 {
			a.Checked++
			if r.x != nil && r.x.checkDiff != "" {
				a.CheckFailures++
			}
		}
		out := r.outcome()
		if out == nil {
			continue
		}
		e := out.simEndNS
		if n == 0 || e < a.MinSimEndNS {
			a.MinSimEndNS = e
		}
		if n == 0 || e > a.MaxSimEndNS {
			a.MaxSimEndNS = e
		}
		sum += float64(e)
		n++
		a.TotalCtxSwitches += out.ctxSwitches
	}
	if n > 0 {
		a.MeanSimEndNS = sum / float64(n)
	}
	for m := range models {
		a.Models = append(a.Models, m)
	}
	sort.Strings(a.Models)
	return a
}
