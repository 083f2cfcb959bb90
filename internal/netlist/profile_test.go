package netlist

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestProfileHarvest pins the measured artifact: word counts are the
// exact words moved per channel, and every module has dispatches.
func TestProfileHarvest(t *testing.T) {
	g, _, _ := smallGraph(40, 4)
	b, err := g.Build(Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	b.Run(sim.RunForever)
	b.Shutdown()
	prof := b.Profile()
	for _, ch := range []string{"f1", "f2"} {
		cp, ok := prof.Channels[ch]
		if !ok {
			t.Fatalf("channel %q missing from profile: %v", ch, prof.Channels)
		}
		if cp.Words != 40 {
			t.Errorf("%s: %d words measured, want 40", ch, cp.Words)
		}
	}
	for _, m := range []string{"source", "relay", "sink"} {
		mp, ok := prof.Modules[m]
		if !ok || mp.Dispatches == 0 {
			t.Errorf("module %q: dispatches %d (present %v), want > 0", m, mp.Dispatches, ok)
		}
	}
}

// TestProfiledBuildNeedsProfile: a sharded profiled build without the
// measured artifact is a configuration error, not a silent fallback.
func TestProfiledBuildNeedsProfile(t *testing.T) {
	g, _, _ := smallGraph(4, 2)
	_, err := g.Build(Options{Shards: 2, Partitioner: Profiled})
	if err == nil || !strings.Contains(err.Error(), "Options.Profile") {
		t.Fatalf("err = %v, want an Options.Profile error", err)
	}
	// At one shard there is nothing to place: no profile needed.
	g2, _, _ := smallGraph(4, 2)
	b, err := g2.Build(Options{Shards: 1, Partitioner: Profiled})
	if err != nil {
		t.Fatalf("single-shard profiled build: %v", err)
	}
	b.Run(sim.RunForever)
	b.Shutdown()
}

// TestProfileGuidedBuild closes the loop by hand: harvest a single-kernel
// profile, feed it into a fresh sharded build, and check the dates stay
// byte-identical while the kept placement dominates the hint placement.
func TestProfileGuidedBuild(t *testing.T) {
	g, refDates, refSum := smallGraph(40, 4)
	b, err := g.Build(Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	b.Run(sim.RunForever)
	b.Shutdown()
	prof := b.Profile()

	for shards := 2; shards <= 3; shards++ {
		g2, dates, sum := smallGraph(40, 4)
		b2, err := g2.Build(Options{Shards: shards, Partitioner: Profiled, Profile: prof})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		b2.Run(sim.RunForever)
		b2.Shutdown()
		if *sum != *refSum || !reflect.DeepEqual(*dates, *refDates) {
			t.Fatalf("shards=%d: profiled build diverged from the single-kernel reference", shards)
		}
		pc := b2.Placement
		if pc == nil {
			t.Fatalf("shards=%d: no placement cost on a profiled build", shards)
		}
		if pc.CrossingsAfter > pc.CrossingsBefore || pc.CutWeightAfter > pc.CutWeightBefore {
			t.Fatalf("shards=%d: kept placement does not dominate: %+v", shards, pc)
		}
	}
}

// TestMeasuredPartGraphWeights: measured word counts replace hint edge
// weights, dispatch counts replace hint unit weights, and both floor at
// one so quiet parts stay schedulable.
func TestMeasuredPartGraphWeights(t *testing.T) {
	g, _, _ := smallGraph(8, 2)
	units, unitOf := g.units()
	prof := &Profile{
		Channels: map[string]ChanProfile{"f1": {Words: 500}, "f2": {Words: 0}},
		Modules:  map[string]ModuleProfile{"source": {Dispatches: 9}, "relay": {Dispatches: 0}},
	}
	pg := g.measuredPartGraph(units, unitOf, prof)
	byName := map[string]float64{}
	for _, u := range pg.Units {
		byName[u.Name] = u.Weight
	}
	if byName["source"] != 9 {
		t.Errorf("source weight = %v, want the 9 measured dispatches", byName["source"])
	}
	// relay measured zero dispatches, sink is absent: both floor at 1.
	if byName["relay"] != 1 || byName["sink"] != 1 {
		t.Errorf("relay/sink weights = %v/%v, want the 1-dispatch floor", byName["relay"], byName["sink"])
	}
	byEdge := map[[2]int]float64{}
	for _, e := range pg.Edges {
		byEdge[[2]int{e.A, e.B}] = e.Weight
	}
	if len(byEdge) != 2 {
		t.Fatalf("edges = %v, want f1 and f2", pg.Edges)
	}
	for k, w := range byEdge {
		if w != 500 && w != 1 {
			t.Errorf("edge %v weight %v, want 500 (measured) or 1 (floored zero)", k, w)
		}
	}
}

// TestProfileJSONRoundTrip: the artifact survives serialization, so it
// can live in files and caches between the two phases.
func TestProfileJSONRoundTrip(t *testing.T) {
	in := &Profile{
		Channels: map[string]ChanProfile{"c": {Words: 7, WriterBlocks: 2, ReaderBlocks: 1}},
		Modules:  map[string]ModuleProfile{"m": {Dispatches: 11}},
	}
	js, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Profile
	if err := json.Unmarshal(js, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, &out) {
		t.Fatalf("round trip: %+v != %+v", &out, in)
	}
}

// TestZeroWeightModulesSchedulable: WithWeight(0) modules still count as
// one unit of schedulable work each, so a build of only zero-weight
// modules still fills every shard.
func TestZeroWeightModulesSchedulable(t *testing.T) {
	g, _, _ := smallGraph(4, 2)
	for _, m := range g.modules {
		m.WithWeight(0)
	}
	b, err := g.Build(Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	used := map[int]bool{}
	for _, s := range b.Assignment {
		used[s] = true
	}
	if len(used) != 3 {
		t.Fatalf("zero-weight modules landed on %d of 3 shards: %v", len(used), b.Assignment)
	}
	b.Run(sim.RunForever)
	b.Shutdown()

	defer func() {
		if recover() == nil {
			t.Fatal("negative weight did not panic")
		}
	}()
	New("neg").Thread("m", nil).WithWeight(-1)
}

// TestPlacementCostCounters covers the counter fold, including the nil
// no-op every unprofiled model path relies on.
func TestPlacementCostCounters(t *testing.T) {
	m := map[string]uint64{"existing": 1}
	(*PlacementCost)(nil).AddCounters(m)
	if len(m) != 1 {
		t.Fatalf("nil placement touched the counters: %v", m)
	}
	pc := &PlacementCost{CrossingsBefore: 3, CrossingsAfter: 1, CutWeightBefore: 40, CutWeightAfter: 8}
	pc.AddCounters(m)
	if m["crossings_before"] != 3 || m["crossings_after"] != 1 ||
		m["cut_weight_before"] != 40 || m["cut_weight_after"] != 8 {
		t.Fatalf("counters = %v", m)
	}
}

// TestProfileCache covers hit, miss, the nil key and the overflow clear.
func TestProfileCache(t *testing.T) {
	c := &profileCache{m: map[any]*Profile{}}
	if _, ok := c.get("k"); ok {
		t.Fatal("hit on empty cache")
	}
	p := &Profile{}
	c.put("k", p)
	if got, ok := c.get("k"); !ok || got != p {
		t.Fatalf("get = %v, %v", got, ok)
	}
	c.put(nil, p)
	if _, ok := c.get(nil); ok {
		t.Fatal("a nil key was cached")
	}
	for i := 0; i < profileCacheLimit; i++ {
		c.put(i, p)
	}
	if len(c.m) > profileCacheLimit {
		t.Fatalf("cache grew to %d entries past the limit", len(c.m))
	}
}

// TestElaborate counts the copies of the model Elaborate declares for a
// profiled two-shard build, after a warm-up step that shares its key: a
// cold key measures a copy first, a warm key does not, a nil key always
// does, and only a keyed single-kernel Smart run to quiescence warms the
// cache.
func TestElaborate(t *testing.T) {
	profiles.mu.Lock()
	profiles.m = map[any]*Profile{} // keys below are cold whatever ran before
	profiles.mu.Unlock()

	type key string
	sharded := Options{Shards: 2, Partitioner: Profiled}
	declare := func(n *int) func() (*Graph, *[]sim.Time) {
		return func() (*Graph, *[]sim.Time) {
			*n++
			g, dates, _ := smallGraph(16, 2)
			return g, dates
		}
	}
	bg := context.Background()
	cancelled, cancel := context.WithCancel(bg)
	cancel()
	// elaborate builds with opt and runs the build under ctx to limit.
	elaborate := func(k any, opt Options, ctx context.Context, limit sim.Time) func(t *testing.T) {
		return func(t *testing.T) {
			var n int
			b, _, err := Elaborate(bg, k, opt, declare(&n))
			if err != nil {
				t.Fatal(err)
			}
			b.RunGuarded(ctx, limit)
			b.Shutdown()
		}
	}
	cases := []struct {
		name string
		key  any
		warm func(t *testing.T) // the step before the counted build
		want int
	}{
		{"cold", key("cold"), nil, 2},
		{"warm", key("warm"), elaborate(key("warm"), sharded, bg, sim.RunForever), 1},
		{"nil_key", nil, elaborate(nil, sharded, bg, sim.RunForever), 2},
		{"single_kernel_run_warms", key("run"), elaborate(key("run"), Options{}, bg, sim.RunForever), 1},
		{"plain_run", key("plain"), elaborate(key("plain"), Options{Impl: Plain}, bg, sim.RunForever), 2},
		{"time_limited_run", key("limited"), elaborate(key("limited"), Options{}, bg, 10*sim.NS), 2},
		{"failed_run", key("failed"), elaborate(key("failed"), Options{}, cancelled, sim.RunForever), 2},
	}
	ref, refDates, _ := smallGraph(16, 2)
	rb := ref.MustBuild(Options{})
	rb.Run(sim.RunForever)
	rb.Shutdown()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.warm != nil {
				tc.warm(t)
			}
			var n int
			b, dates, err := Elaborate(bg, tc.key, sharded, declare(&n))
			if err != nil {
				t.Fatal(err)
			}
			if n != tc.want {
				t.Errorf("declared %d copies, want %d", n, tc.want)
			}
			if b.Placement == nil {
				t.Error("no placement cost on a profiled build")
			}
			if err := b.RunGuarded(bg, sim.RunForever); err != nil {
				t.Fatal(err)
			}
			b.Shutdown()
			if !reflect.DeepEqual(*dates, *refDates) {
				t.Error("the sharded copy's dates differ from the single-kernel reference")
			}
		})
	}
}
