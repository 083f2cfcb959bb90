package campaign

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/scenario"
)

// shardedSet sweeps every shardable, partitioner-aware model, each at
// one and more shards, plus single-kernel kpn points (which profile
// guidance must leave alone).
func shardedSet() scenario.Set {
	return scenario.Set{
		Name: "sharded",
		Specs: []scenario.Spec{
			{
				Model:  "netlist",
				Params: scenario.Params{"words": 12},
				Matrix: map[string][]any{
					"kind":   []any{"chain", "mesh"},
					"shards": []any{1, 2},
				},
			},
			{
				Model:  "soc-clustered",
				Params: scenario.Params{"jobs": 1, "words_per_job": 16},
				Matrix: map[string][]any{
					"shards": []any{1, 3},
				},
			},
			{
				Model:  "kpn",
				Params: scenario.Params{"tokens": 8},
				Matrix: map[string][]any{
					"stages": []any{2, 3},
				},
			},
			{
				Model:  "kpn",
				Params: scenario.Params{"tokens": 8, "stages": 3, "shards": 2},
			},
			{
				Model:  "noc",
				Params: scenario.Params{"words": 8, "meshes": 2, "shards": 2},
			},
			{
				Model:  "pipeline",
				Params: scenario.Params{"blocks": 2, "words_per_block": 20, "shards": 2},
			},
		},
	}
}

// TestProfileGuidedCampaign pins the tentpole loop end to end: sharded
// points of partitioner-aware models are rewritten to the profiled
// partitioner, their dates stay identical to the unguided sweep, the
// placement counters obey the dominance guarantee, and the document
// stays byte-identical across worker counts.
func TestProfileGuidedCampaign(t *testing.T) {
	set := shardedSet()
	run := func(workers int, guided bool) *Results {
		res, err := Run(context.Background(), set, Options{
			Workers: workers, Cache: NewCache(), ProfileGuided: guided,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	base := run(1, false)
	guided := run(1, true)
	bps, gps := base.Points(), guided.Points()
	if len(bps) != len(gps) {
		t.Fatalf("point counts differ: %d vs %d", len(bps), len(gps))
	}
	rewritten := 0
	for i := range gps {
		gp := &gps[i]
		if gp.Err != "" {
			t.Fatalf("point %d (%s): %s", i, gp.Model, gp.Err)
		}
		_, bout := decodePoint(t, &bps[i])
		params, out := decodePoint(t, gp)
		// Placement never changes the dated behaviour.
		if bout.DatesHash != out.DatesHash {
			t.Errorf("point %d (%s %s): dates_hash %s != unguided %s",
				i, gp.Model, gp.Params, out.DatesHash, bout.DatesHash)
		}
		if part, ok := params["partitioner"]; ok && part == "profiled" {
			rewritten++
			if shardsOf(params) < 2 {
				t.Errorf("point %d: single-kernel point rewritten", i)
			}
			cb, okc := out.Counters["crossings_before"]
			if !okc {
				t.Errorf("point %d: profiled point has no placement counters: %v", i, out.Counters)
				continue
			}
			if ca := out.Counters["crossings_after"]; ca > cb {
				t.Errorf("point %d: crossings_after %d > crossings_before %d", i, ca, cb)
			}
			if wa, wb := out.Counters["cut_weight_after"], out.Counters["cut_weight_before"]; wa > wb {
				t.Errorf("point %d: cut_weight_after %d > cut_weight_before %d", i, wa, wb)
			}
		} else if shardsOf(params) > 1 {
			t.Errorf("point %d (%s): sharded point not rewritten: %s", i, gp.Model, gp.Params)
		}
	}
	if rewritten == 0 {
		t.Fatal("no point was rewritten to the profiled partitioner")
	}

	// Determinism across worker counts, rewrite included.
	render := func(r *Results) (string, string) {
		var j, c bytes.Buffer
		if err := r.JSON(&j, false); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteCSV(&c, false); err != nil {
			t.Fatal(err)
		}
		return j.String(), c.String()
	}
	j1, c1 := render(guided)
	j8, c8 := render(run(8, true))
	if j1 != j8 {
		t.Errorf("profile-guided JSON differs between 1 and 8 workers:\n--- 1\n%s\n--- 8\n%s", j1, j8)
	}
	if c1 != c8 {
		t.Error("profile-guided CSV differs between 1 and 8 workers")
	}
}

// TestProfilePointSeedsCache: the single-kernel measurement twin flows
// through the shared outcome cache, so an explicit single-kernel point
// of the same sweep is served without re-running.
func TestProfilePointSeedsCache(t *testing.T) {
	cache := NewCache()
	set := scenario.Set{
		Name: "twin",
		Specs: []scenario.Spec{{
			Model:  "netlist",
			Params: scenario.Params{"kind": "chain", "words": 8},
			Matrix: map[string][]any{"shards": []any{2}},
		}},
	}
	res, err := Run(context.Background(), set, Options{Workers: 1, Cache: cache, ProfileGuided: true})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Points()[0]
	if p.Err != "" {
		t.Fatal(p.Err)
	}
	// The twin's hash: the same point at shards=1 without a partitioner.
	params, err := p.DecodeParams()
	if err != nil {
		t.Fatal(err)
	}
	params["shards"] = 1
	delete(params, "partitioner")
	hash, err := scenario.HashPoint("netlist", params)
	if err != nil {
		t.Fatal(err)
	}
	if _, hit := cache.Get(hash); !hit {
		t.Fatalf("measurement twin %s not in the shared cache (%d entries)", hash, cache.Len())
	}
}

// decodePoint decodes a point's params and outcome; a point without an
// outcome fails the test.
func decodePoint(t *testing.T, p *PointResult) (scenario.Params, *scenario.Outcome) {
	t.Helper()
	params, err := p.DecodeParams()
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.DecodeOutcome()
	if err != nil || out == nil {
		t.Fatalf("point %d: outcome %v, %v", p.Index, out, err)
	}
	return params, out
}
