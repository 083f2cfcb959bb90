package campaign

import (
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Campaign instrumentation. Two layers feed off the same completion
// sites in runOne: the shared Metrics sink (process-wide totals for the
// /metrics scrape, installed via Options.Metrics) and the per-job live
// counters behind Job.Live (the /campaigns/{id}/stats document). Both
// are updated per POINT, never inside a kernel loop, so the cost is
// invisible next to the simulations themselves.

// Metrics is the shared sink for campaign execution. All fields may be
// nil (updates no-op); build one with NewMetrics.
type Metrics struct {
	// PointsStarted counts canonical points entering execution;
	// PointsCompleted/PointsFailed split the outcomes; PointsDegraded
	// counts points served by the single-kernel quarantine rerun.
	PointsStarted   *metrics.Counter
	PointsCompleted *metrics.Counter
	PointsFailed    *metrics.Counter
	PointsDegraded  *metrics.Counter
	// Retries counts extra attempts beyond each point's first.
	Retries *metrics.Counter
	// CacheHits counts points served from the shared outcome cache.
	CacheHits *metrics.Counter
	// ProfileRuns counts single-kernel profiling pre-runs executed by
	// profile-guided campaigns (cache hits are not counted).
	ProfileRuns *metrics.Counter
	// ActiveWorkers gauges workers currently executing a point;
	// ActiveCampaigns gauges engine jobs currently running.
	ActiveWorkers   *metrics.Gauge
	ActiveCampaigns *metrics.Gauge
}

// NewMetrics registers the campaign metric family on r. A nil registry
// returns nil (a no-op sink).
func NewMetrics(r *metrics.Registry) *Metrics {
	if r == nil {
		return nil
	}
	return &Metrics{
		PointsStarted:   r.Counter("campaign_points_started_total", "Canonical points entering execution."),
		PointsCompleted: r.Counter("campaign_points_completed_total", "Points finished with an outcome."),
		PointsFailed:    r.Counter("campaign_points_failed_total", "Points finished with an error."),
		PointsDegraded:  r.Counter("campaign_points_degraded_total", "Points served by the single-kernel quarantine rerun."),
		Retries:         r.Counter("campaign_retries_total", "Extra attempts beyond each point's first."),
		CacheHits:       r.Counter("campaign_cache_hits_total", "Points served from the shared outcome cache."),
		ProfileRuns:     r.Counter("campaign_profile_runs_total", "Single-kernel profiling pre-runs executed by profile-guided campaigns."),
		ActiveWorkers:   r.Gauge("campaign_active_workers", "Workers currently executing a point."),
		ActiveCampaigns: r.Gauge("campaign_active_campaigns", "Engine campaigns currently running."),
	}
}

// liveStats is one job's live counters, written by the campaign's
// worker goroutines and snapshotted by the stats endpoint while the
// job runs.
type liveStats struct {
	started   atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	degraded  atomic.Uint64
	cacheHits atomic.Uint64
	retries   atomic.Uint64
	startedAt time.Time
}

// Live is a running campaign's counter snapshot, served under
// /campaigns/{id}/stats. Unlike the results document it is
// intentionally nondeterministic: it moves while the campaign runs.
type Live struct {
	// State echoes the job state; Points/Total echo the expansion.
	State  JobState `json:"state"`
	Points int      `json:"points"`
	Total  int      `json:"total"`
	// Started counts canonical points that entered execution;
	// Completed and Failed split the finished ones; Degraded counts
	// quarantine reruns; CacheHits counts points served from cache;
	// Retries counts extra attempts.
	Started   uint64 `json:"started"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Degraded  uint64 `json:"degraded,omitempty"`
	CacheHits uint64 `json:"cache_hits"`
	Retries   uint64 `json:"retries,omitempty"`
	// ElapsedMS is wall time since submission; PointsPerSec is the
	// finished-point rate over it.
	ElapsedMS    float64 `json:"elapsed_ms"`
	PointsPerSec float64 `json:"points_per_sec"`
}

// observePoint folds one finished canonical point into the shared sink
// and the job's live counters.
func observePoint(m *Metrics, ls *liveStats, r *row) {
	failed := r.err() != ""
	degraded := r.flags&rowDegraded != 0
	cacheHit := r.flags&rowCached != 0
	retries := 0
	if r.attempts > 1 {
		retries = int(r.attempts) - 1
	}
	if m != nil {
		if failed {
			m.PointsFailed.Inc()
		} else {
			m.PointsCompleted.Inc()
		}
		if degraded {
			m.PointsDegraded.Inc()
		}
		if cacheHit {
			m.CacheHits.Inc()
		}
		m.Retries.Add(uint64(retries))
	}
	if ls != nil {
		if failed {
			ls.failed.Add(1)
		} else {
			ls.completed.Add(1)
		}
		if degraded {
			ls.degraded.Add(1)
		}
		if cacheHit {
			ls.cacheHits.Add(1)
		}
		ls.retries.Add(uint64(retries))
	}
}

// Live snapshots the job's live counters. Safe to call at any time,
// including while the campaign runs.
func (j *Job) Live() Live {
	st := j.Status()
	l := Live{State: st.State, Points: st.Points, Total: st.Total}
	ls := j.live
	if ls == nil {
		return l
	}
	l.Started = ls.started.Load()
	l.Completed = ls.completed.Load()
	l.Failed = ls.failed.Load()
	l.Degraded = ls.degraded.Load()
	l.CacheHits = ls.cacheHits.Load()
	l.Retries = ls.retries.Load()
	elapsed := time.Since(ls.startedAt)
	l.ElapsedMS = float64(elapsed.Microseconds()) / 1000
	if done := l.Completed + l.Failed; done > 0 && elapsed > 0 {
		l.PointsPerSec = float64(done) / elapsed.Seconds()
	}
	return l
}
