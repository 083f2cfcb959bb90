package campaign

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// mixedSet sweeps three workload kinds with small per-point workloads.
func mixedSet() scenario.Set {
	return scenario.Set{
		Name: "mixed",
		Specs: []scenario.Spec{
			{
				Model:  "pipeline",
				Params: scenario.Params{"blocks": 2, "words_per_block": 25},
				Matrix: map[string][]any{
					"depth": []any{1, 4, 16},
					"mode":  []any{"TDless", "TDfull"},
				},
			},
			{
				Model:  "kpn",
				Params: scenario.Params{"tokens": 12},
				Matrix: map[string][]any{
					"stages": []any{2, 3},
					"depth":  []any{1, 4},
				},
			},
			{
				Model:  "noc",
				Params: scenario.Params{"words": 16, "packet_len": 4},
				Matrix: map[string][]any{
					"width": []any{2, 3},
				},
			},
		},
	}
}

// TestDeterministicAcrossWorkerCounts is the campaign determinism
// contract: the same spec run with 1 worker and with N workers produces
// byte-identical results JSON and CSV.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	set := mixedSet()
	render := func(workers int) (string, string) {
		res, err := Run(context.Background(), set, Options{
			Workers: workers, CheckEvery: 4, Cache: NewCache(),
		})
		if err != nil {
			t.Fatal(err)
		}
		var j, c bytes.Buffer
		if err := res.JSON(&j, false); err != nil {
			t.Fatal(err)
		}
		if err := res.WriteCSV(&c, false); err != nil {
			t.Fatal(err)
		}
		return j.String(), c.String()
	}
	j1, c1 := render(1)
	j8, c8 := render(8)
	if j1 != j8 {
		t.Errorf("results JSON differs between 1 and 8 workers:\n--- 1 worker\n%s\n--- 8 workers\n%s", j1, j8)
	}
	if c1 != c8 {
		t.Errorf("results CSV differs between 1 and 8 workers")
	}
	if !strings.Contains(j1, `"checked": true`) {
		t.Error("no point carried a spot check")
	}
}

// TestBigMatrixCampaign is the acceptance criterion: a 100+-point matrix
// over >= 3 workload kinds runs to completion (this package is in the CI
// -race list).
func TestBigMatrixCampaign(t *testing.T) {
	set := scenario.Set{
		Name: "big",
		Specs: []scenario.Spec{
			{
				Model:  "pipeline",
				Params: scenario.Params{"blocks": 2, "words_per_block": 20},
				Matrix: map[string][]any{
					"depth": []any{1, 2, 4, 8, 16, 32},
					"mode":  []any{"untimed", "TDless", "TDfull", "quantum"},
					"seed":  []any{1, 2},
				}, // 48 points
			},
			{
				Model:  "kpn",
				Params: scenario.Params{"tokens": 10},
				Matrix: map[string][]any{
					"stages":    []any{2, 3, 4},
					"depth":     []any{1, 2, 8},
					"decoupled": []any{true, false},
					"seed":      []any{1, 2},
				}, // 36 points
			},
			{
				Model:  "noc",
				Params: scenario.Params{"words": 16, "packet_len": 4},
				Matrix: map[string][]any{
					"width":   []any{2, 3},
					"height":  []any{1, 2},
					"streams": []any{1, 2},
				}, // 8 points
			},
			{
				Model:  "soc",
				Params: scenario.Params{"jobs": 1, "words_per_job": 32, "fifo_depth": 4},
				Matrix: map[string][]any{
					"pipelines": []any{1, 2},
					"mode":      []any{"smart", "sync"},
					"use_irq":   []any{true, false},
				}, // 8 points
			},
			{
				Model:  "soc-clustered",
				Params: scenario.Params{"jobs": 1, "words_per_job": 32, "fifo_depth": 4},
				Matrix: map[string][]any{
					"pipelines": []any{2, 3},
					"shards":    []any{1, 2},
				}, // 4 points
			},
		},
	}
	res, err := Run(context.Background(), set, Options{CheckEvery: 25, Cache: NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggregate.Points < 100 {
		t.Fatalf("matrix expanded to %d points, want >= 100", res.Aggregate.Points)
	}
	if len(res.Aggregate.Models) < 3 {
		t.Fatalf("campaign covers %v, want >= 3 workload kinds", res.Aggregate.Models)
	}
	if res.Aggregate.Errors != 0 {
		for _, p := range res.Points() {
			if p.Err != "" {
				t.Errorf("point %d (%s %s): %s", p.Index, p.Model, p.Params, p.Err)
			}
		}
	}
	if res.Aggregate.CheckFailures != 0 {
		t.Errorf("%d spot checks failed", res.Aggregate.CheckFailures)
	}
	// Min is 0: the untimed pipeline points carry no simulated clock.
	if res.Aggregate.MinSimEndNS < 0 || res.Aggregate.MaxSimEndNS <= res.Aggregate.MinSimEndNS {
		t.Errorf("implausible date aggregates: %+v", res.Aggregate)
	}
}

// TestDedupAndCache: repeated points execute once per campaign; a shared
// cache carries outcomes across campaigns.
func TestDedupAndCache(t *testing.T) {
	set := scenario.Set{Specs: []scenario.Spec{
		{Model: "kpn", Params: scenario.Params{"tokens": 8}},
		{Model: "kpn", Params: scenario.Params{"tokens": 8}}, // duplicate
		{Model: "kpn", Params: scenario.Params{"tokens": 9}},
	}}
	cache := NewCache()
	res, err := Run(context.Background(), set, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggregate.Points != 3 || res.Aggregate.Unique != 2 {
		t.Fatalf("points/unique = %d/%d, want 3/2", res.Aggregate.Points, res.Aggregate.Unique)
	}
	points := res.Points()
	p0, p1 := points[0], points[1]
	if !p1.Dedup || p0.Dedup {
		t.Errorf("dedup flags wrong: %v %v", p0.Dedup, p1.Dedup)
	}
	if p1.Outcome == nil || !bytes.Equal(p1.Outcome, p0.Outcome) {
		t.Error("dedup point did not copy the canonical outcome")
	}
	if cache.Len() != 2 {
		t.Errorf("cache holds %d outcomes, want 2", cache.Len())
	}
	// Second campaign over the same points: all served from cache.
	res2, err := Run(context.Background(), set, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Timing.CacheHits != 2 {
		t.Errorf("second campaign hit the cache %d times, want 2", res2.Timing.CacheHits)
	}
	var b1, b2 bytes.Buffer
	res.JSON(&b1, false)
	res2.JSON(&b2, false)
	if b1.String() != b2.String() {
		t.Error("cache-served campaign renders differently")
	}
}

// TestPointErrorsReported: a bad point fails alone, the campaign
// completes, and the aggregate counts it.
func TestPointErrorsReported(t *testing.T) {
	set := scenario.Set{Specs: []scenario.Spec{
		{Model: "pipeline", Params: scenario.Params{"blocks": 2, "words_per_block": 10},
			Matrix: map[string][]any{"mode": []any{"TDfull", "warp"}}},
	}}
	res, err := Run(context.Background(), set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggregate.Errors != 1 {
		t.Fatalf("errors = %d, want 1", res.Aggregate.Errors)
	}
	var bad, good int
	for _, p := range res.Points() {
		if p.Err != "" {
			bad++
		} else if p.Outcome != nil {
			good++
		}
	}
	if bad != 1 || good != 1 {
		t.Errorf("bad/good = %d/%d, want 1/1", bad, good)
	}
}

// TestSubmissionErrors: validation problems fail the whole submission.
func TestSubmissionErrors(t *testing.T) {
	if _, err := Run(context.Background(), scenario.Set{}, Options{}); err == nil {
		t.Error("empty set accepted")
	}
	bad := scenario.Set{Specs: []scenario.Spec{{Model: "ghost"}}}
	if _, err := Run(context.Background(), bad, Options{}); err == nil {
		t.Error("unknown model accepted")
	}
	big := scenario.Set{Specs: []scenario.Spec{{
		Model:  "kpn",
		Matrix: map[string][]any{"tokens": []any{1, 2, 3, 4, 5}, "depth": []any{1, 2, 3}},
	}}}
	if _, err := Run(context.Background(), big, Options{MaxPoints: 10}); err == nil {
		t.Error("oversize expansion accepted")
	}
}

// TestCancelledContext: cancellation marks unstarted points as errors
// instead of hanging.
func TestCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	set := scenario.Set{Specs: []scenario.Spec{
		{Model: "kpn", Matrix: map[string][]any{"tokens": []any{5, 6, 7}}},
	}}
	res, err := Run(ctx, set, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggregate.Errors != 3 {
		t.Errorf("errors = %d, want 3 (all cancelled)", res.Aggregate.Errors)
	}
}

// TestProgressCallback reports monotonically increasing completion.
func TestProgressCallback(t *testing.T) {
	var calls []int
	set := scenario.Set{Specs: []scenario.Spec{
		{Model: "kpn", Matrix: map[string][]any{"tokens": []any{3, 4, 5, 6}}},
	}}
	_, err := Run(context.Background(), set, Options{
		Workers: 1,
		OnProgress: func(done, total int) {
			if total != 4 {
				t.Errorf("total = %d, want 4", total)
			}
			calls = append(calls, done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 4 || calls[3] != 4 {
		t.Errorf("progress calls = %v, want [1 2 3 4]", calls)
	}
}
