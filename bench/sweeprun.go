package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
)

// sweepInst is a set-up sweep workload: a running simd child, and for
// sweep_warm the fixed Set the set-up already computed.
type sweepInst struct {
	rc      *runCtx
	simd    *simdProc
	cold    bool
	traced  bool
	nextSet int    // ordinal of the next fresh Set (cold ops)
	warmDoc []byte // sweep_warm: the fixed Set
	warmRef []byte // sweep_warm: the document the set-up received
}

// startSweep is the set-up of a sweep workload: boot simd to /healthz,
// prime the cache with the fixed Set (sweep_warm), run the discarded
// warm-up op.
func startSweep(rc *runCtx, cold, traced, withStore bool) (*sweepInst, error) {
	var extra []string
	if !cold {
		// simd's default -check-every 16 re-runs the trace-equivalence
		// oracle on 11 of the 168 cached points: 16 157 context switches,
		// two thirds of the op. The warm row exists to bypass the kernel,
		// so it turns the spot check off; sweep_cold keeps the default.
		extra = []string{"-check-every", "0"}
	}
	sp := rc.tr.begin("setup.simd_boot", nil, -1)
	simd, err := startSimd(rc.simdBin, rc.dir, withStore, traced, extra...)
	sp.done()
	if err != nil {
		return nil, err
	}
	rc.simdStderr = simd.stderr
	s := &sweepInst{rc: rc, simd: simd, cold: cold, traced: traced}
	if !cold {
		s.warmDoc = sweepDoc(sweepSeeds(rc.cfg.seed, 0))
		s.nextSet = 1
		sp := rc.tr.begin("setup.prime_cache", nil, -1)
		ctx, cancel := context.WithTimeout(rc.ctx, opTimeout)
		run, err := simd.submitAndStream(ctx, s.warmDoc, rc.tr, sp, -1)
		cancel()
		sp.done()
		if err == nil {
			if c := checkSweep(run.lines); c.failed > 0 || c.points != sweepPoints {
				err = fmt.Errorf("%d of %d points failed: %s", c.failed, c.points, c.firstErr)
			}
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("priming the cache: %w\nsimd stderr:\n%s", err, simd.stderr)
		}
		s.warmRef = pointBytes(run.lines)
	}
	if warm := s.op(0); warm.err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up op: %w\nsimd stderr:\n%s", warm.err, simd.stderr)
	}
	return s, nil
}

// pointBytes is the part of a streamed document that depends only on the
// Set: its point lines (the closing line depends on when the job settled).
func pointBytes(lines [][]byte) []byte {
	points, _ := splitStream(lines)
	return bytes.Join(points, nil)
}

func (s *sweepInst) pid() int                { return s.simd.cmd.Process.Pid }
func (s *sweepInst) setupDateErrNS() float64 { return 0 } // sweeps check dates on every op instead
func (s *sweepInst) close()                  { s.simd.stop() }

// scrapeMetrics fetches and parses /metrics, timing the request.
func (s *sweepInst) scrapeMetrics(ctx context.Context, sample *opSample, parent *spanRef, op int) (scrape, error) {
	sp := s.rc.tr.begin("simd.GET /metrics", parent, op)
	code, body, d, err := s.simd.get(ctx, "/metrics")
	sp.done()
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", code)
	}
	sample.scrapeT = d
	return parseScrape(body)
}

func (s *sweepInst) op(i int) opSample {
	sample := opSample{attempted: sweepPoints}
	fail := func(err error) opSample {
		sample.failed, sample.err = sweepPoints, err
		return sample
	}
	ctx, cancel := context.WithTimeout(s.rc.ctx, opTimeout)
	defer cancel()
	doc := s.warmDoc
	if s.cold {
		doc = sweepDoc(sweepSeeds(s.rc.cfg.seed, s.nextSet))
		s.nextSet++
	}
	root := s.rc.tr.begin("sweep.op", nil, i)
	defer root.done()

	var before scrape
	if s.traced {
		var err error
		if before, err = s.scrapeMetrics(ctx, &sample, root, i); err != nil {
			return fail(err)
		}
	}
	run, err := s.simd.submitAndStream(ctx, doc, s.rc.tr, root, i)
	if err != nil {
		return fail(err)
	}
	sample.wall, sample.first, sample.ack = run.done, run.first, run.ack

	c := checkSweep(run.lines)
	sample.failed, sample.dateErrNS = c.failed, c.dateErrNS
	if c.points != sweepPoints {
		sample.failed += max(sweepPoints-c.points, 0)
		c.firstErr = fmt.Sprintf("stream carried %d points, want %d; %s", c.points, sweepPoints, c.firstErr)
	}
	if c.firstErr != "" {
		sample.err = fmt.Errorf("%s", c.firstErr)
	}
	if !s.cold && s.warmRef != nil && !bytes.Equal(pointBytes(run.lines), s.warmRef) {
		sample.failed = max(sample.failed, 1)
		if sample.err == nil {
			sample.err = fmt.Errorf("warm document differs from the one set-up received")
		}
	}
	sample.failed = min(sample.failed, sweepPoints)
	sample.unsettled = c.unsettled
	sample.counts = map[string]float64{"core.words": float64(c.words)}

	if s.traced {
		// The buffered document answers 409 until the job has settled,
		// which can trail the stream's last point; the fetch that
		// succeeds is the one timed, and only after it are the job's
		// counters and its job_finished record final.
		sp := s.rc.tr.begin("simd.GET results", root, i)
		for {
			code, _, d, err := s.simd.get(ctx, "/campaigns/"+run.id+"/results")
			if err == nil && code == http.StatusConflict {
				continue // ends with the job settling, or with ctx's deadline as an error
			}
			if err != nil || code != http.StatusOK {
				return fail(fmt.Errorf("buffered GET results: status %d, %v", code, err))
			}
			sample.fetch = d
			break
		}
		sp.done()
		after, err := s.scrapeMetrics(ctx, &sample, root, i)
		if err != nil {
			return fail(err)
		}
		for name, family := range map[string]string{
			"sim.ctx_switches":          "sim_dispatches_total", // thread-only models: every dispatch is a switch
			"sim.delta_cycles":          "sim_delta_cycles_total",
			"sim.timed_steps":           "sim_timed_steps_total",
			"sim.notifications":         "sim_notifications_total",
			"campaign.points_started":   "campaign_points_started_total",
			"campaign.points_completed": "campaign_points_completed_total",
			"campaign.cache_hits":       "campaign_cache_hits_total",
			"campaign.points_failed":    "campaign_points_failed_total",
			"campaign.retries":          "campaign_retries_total",
			"store.records":             "store_records_total",
			"store.fsyncs":              "store_fsyncs_total",
		} {
			sample.counts[name] = delta(before, after, family)
		}
		// Useful outcomes over attempts: 0 on a cold sweep, 1 on a warm
		// one; anything else means the cache did not do what the
		// workload exists to exercise.
		ratio := 0.0
		if started := sample.counts["campaign.points_started"]; started > 0 {
			ratio = sample.counts["campaign.cache_hits"] / started
		}
		sample.counts["campaign.cache_hit_ratio"] = ratio
		want := 1.0
		if s.cold {
			want = 0
		}
		if ratio != want && sample.err == nil {
			sample.failed = max(sample.failed, 1)
			sample.err = fmt.Errorf("cache hit ratio %.3f, want %v", ratio, want)
		}
	}
	return sample
}
