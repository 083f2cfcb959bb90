package netlist

import (
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/sim"
)

// A Profile is the measured-traffic artifact the profile-guided
// partitioner consumes: per-channel word counts and block rates, and
// per-module dispatch counts, keyed by the graph's channel and module
// names. Elaborate harvests one from a single-kernel run and feeds it
// back through Options.Profile; Build.Profile and Options.Profile are
// the two halves of that loop for callers wiring it by hand.
//
// Profiles are schedule-independent: word counts, block occurrences and
// dispatch counts are facts of the model's dated behaviour, which every
// partitioning and every scheduler reproduces exactly (the package's
// trace-equivalence invariant). Any run of the same model therefore
// yields the same profile — a single-kernel run can profile for a
// sharded one, and a cached profile never goes stale for the point that
// produced it.
type Profile struct {
	Channels map[string]ChanProfile   `json:"channels"`
	Modules  map[string]ModuleProfile `json:"modules"`
}

// ChanProfile is one channel's measured traffic.
type ChanProfile struct {
	// Words is the number of words written into the channel (burst
	// transfers count their full length).
	Words uint64 `json:"words"`
	// WriterBlocks and ReaderBlocks count accesses that found the
	// channel internally full (resp. empty) — where decoupling stalls.
	WriterBlocks uint64 `json:"writer_blocks,omitempty"`
	ReaderBlocks uint64 `json:"reader_blocks,omitempty"`
}

// ModuleProfile is one module's measured compute weight.
type ModuleProfile struct {
	// Dispatches sums the activation counts of every process the module
	// elaborated (thread dispatches plus method activations).
	Dispatches uint64 `json:"dispatches"`
}

// Profile harvests the measured profile from an elaborated build: run
// the build first, then call Profile, then hand the artifact to a fresh
// Build via Options.Profile. Channels whose implementation carries no
// counters (Plain/Sync reference builds) are omitted; the partitioner
// falls back to their static hints.
func (b *Build) Profile() *Profile {
	p := &Profile{
		Channels: make(map[string]ChanProfile, len(b.g.chans)),
		Modules:  make(map[string]ModuleProfile, len(b.g.modules)),
	}
	for _, d := range b.g.chans {
		if t, ok := d.profileTraffic(); ok {
			p.Channels[d.meta().name] = ChanProfile{
				Words:        t.WordsWritten,
				WriterBlocks: t.WriterBlocks,
				ReaderBlocks: t.ReaderBlocks,
			}
		}
	}
	for i, m := range b.g.modules {
		var n uint64
		for _, pr := range b.procs[i] {
			n += pr.Dispatches()
		}
		p.Modules[m.name] = ModuleProfile{Dispatches: n}
	}
	return p
}

// measuredPartGraph re-weights the unit graph with a profile: edge
// weights become observed word counts (floored at 1 — a quiet channel
// is still a channel), unit weights become observed dispatch counts
// (each module floored at 1 dispatch, so an empty-profile unit still
// counts as schedulable work and never wedges the balance pass).
// Channels absent from the profile keep their static hint.
func (g *Graph) measuredPartGraph(units []Unit, unitOf []int, prof *Profile) PartGraph {
	mu := make([]Unit, len(units))
	for i := range units {
		mu[i] = Unit{Name: units[i].Name}
	}
	for i, m := range g.modules {
		w := 1.0
		if mp, ok := prof.Modules[m.name]; ok && mp.Dispatches > 1 {
			w = float64(mp.Dispatches)
		}
		mu[unitOf[i]].Weight += w
	}
	pg := PartGraph{Units: mu}
	for _, d := range g.chans {
		cm := d.meta()
		if cm.writer < 0 || cm.reader < 0 {
			continue
		}
		a, b := unitOf[cm.writer], unitOf[cm.reader]
		if a == b {
			continue
		}
		w := cm.trafficWeight()
		if cp, ok := prof.Channels[cm.name]; ok {
			w = float64(cp.Words)
			if w < 1 {
				w = 1
			}
		}
		pg.Edges = append(pg.Edges, Edge{A: a, B: b, Weight: w})
	}
	return pg
}

// PlacementCost reports what a profile-guided build paid before and
// after repartitioning, both costed under the measured edge weights:
// "before" is the hint-driven greedy min-cut placement, "after" is the
// placement actually elaborated. Build keeps the measured placement
// only when it dominates the hint placement on both counts, so
// CrossingsAfter <= CrossingsBefore and CutWeightAfter <=
// CutWeightBefore always hold.
type PlacementCost struct {
	CrossingsBefore int     `json:"crossings_before"`
	CrossingsAfter  int     `json:"crossings_after"`
	CutWeightBefore float64 `json:"cut_weight_before"`
	CutWeightAfter  float64 `json:"cut_weight_after"`
}

// AddCounters folds the placement cost into a model's outcome-counter
// map (a no-op on a nil receiver, i.e. an unprofiled build). Measured
// weights are integral word counts, so the uint64 truncation is exact;
// the values are dated-behaviour facts and therefore safe in
// deterministic outcomes.
func (pc *PlacementCost) AddCounters(m map[string]uint64) {
	if pc == nil {
		return
	}
	m["crossings_before"] = uint64(pc.CrossingsBefore)
	m["crossings_after"] = uint64(pc.CrossingsAfter)
	m["cut_weight_before"] = uint64(pc.CutWeightBefore)
	m["cut_weight_after"] = uint64(pc.CutWeightAfter)
}

// Elaborate is the one profile-guided build path: it declares the model
// and builds it with opt. declare returns a fresh copy of the model's
// graph plus the state its bodies write into (a graph elaborates at
// most once, so every call must declare anew). When opt asks for the
// Profiled partitioner on more than one shard and carries no Profile,
// Elaborate first looks key up in the process-wide profile cache; on a
// miss it declares a second copy, runs it single-kernel on Smart
// channels under ctx and harvests its profile.
//
// key is any comparable value that fixes the model's dates but not its
// placement (no shard count, no partitioner); nil disables caching.
// Profiles are schedule-independent, so a cached entry never goes stale
// for its key. The returned build remembers key: running it
// single-kernel on Smart channels to quiescence with RunGuarded warms
// the cache for a later sharded build of the same model.
func Elaborate[S any](ctx context.Context, key any, opt Options, declare func() (*Graph, S)) (*Build, S, error) {
	if opt.Profile == nil && opt.profiled() {
		prof, ok := profiles.get(key)
		if !ok {
			g, _ := declare()
			pb, err := g.Build(Options{Impl: Smart})
			if err == nil {
				err = pb.RunGuarded(ctx, sim.RunForever)
				pb.Shutdown()
			}
			if err != nil {
				var zero S
				return nil, zero, err
			}
			prof = pb.Profile()
			profiles.put(key, prof)
		}
		opt.Profile = prof
	}
	g, s := declare()
	b, err := g.Build(opt)
	if err != nil {
		return nil, s, err
	}
	b.key = key
	return b, s, nil
}

// profiles memoizes measured profiles by Elaborate key, shared across
// goroutines. It is bounded only to keep long campaign sweeps from
// accumulating entries without limit: on overflow it is simply cleared
// (a miss just re-runs a single-kernel profiling pass).
var profiles = &profileCache{m: map[any]*Profile{}}

const profileCacheLimit = 256

type profileCache struct {
	mu sync.Mutex
	m  map[any]*Profile
}

func (c *profileCache) get(key any) (*Profile, bool) {
	if key == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.m[key]
	return p, ok
}

func (c *profileCache) put(key any, p *Profile) {
	if key == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.m) >= profileCacheLimit {
		c.m = map[any]*Profile{}
	}
	c.m[key] = p
}

// profileTraffic is the type-erased per-channel counter feed: the
// SmartFIFO's always-on ChanTraffic for local channels, the bridge's
// crossing counters for cut channels; ok is false when the elaborated
// implementation carries no counters.
func (c *Chan[T]) profileTraffic() (core.ChanTraffic, bool) {
	if sf, ok := c.w.(*core.SmartFIFO[T]); ok {
		return sf.Traffic(), true
	}
	if c.br != nil {
		if tp, ok := c.br.(interface{ Traffic() core.Traffic }); ok {
			t := tp.Traffic()
			return core.ChanTraffic{WordsWritten: t.WordsCrossed, WordsRead: t.WordsCrossed}, true
		}
	}
	return core.ChanTraffic{}, false
}
