package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/pipeline"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/soc"
)

// The in-process workloads: the paper's own models, called through the
// public pipeline and soc entry points exactly as cmd/fifobench and
// cmd/socbench call them. One op is one Run call.

// opTimeout bounds one op: a wedged model records a failed op instead of
// hanging the run.
const opTimeout = 60 * time.Second

// modelOut is what one model run exposes to the checks and the counters,
// flattened across the pipeline and soc result types.
type modelOut struct {
	kernelWall time.Duration // Result.Wall: the span of Kernel.Run / the coordinator
	dates      []sim.Time    // every block/job completion date, in order
	checksums  []uint64
	simEnd     sim.Time
	stats      sim.Stats
	words      int
	shards     int
	advances   uint64
	crossings  int
	bus        uint64
	flits      uint64
}

// digest folds the dated completion log the way the scenario adapters do
// (scenario.Digest), so a golden here means what dates_hash means in a
// campaign document.
func (o *modelOut) digest() string {
	d := scenario.NewDigest()
	d.Times(o.dates)
	return d.Sum()
}

// variant selects which build of a workload's model runs.
type variant int

const (
	underTest variant = iota // the decoupled / sharded build the row measures
	reference                // the accuracy reference: TDless, SyncFIFOs, one shard
)

// modelDef describes one in-process workload: run executes the model at
// full scale, or at the reduced scale the set-up's reference check uses
// (1/20 of the work, less on the deep fig5 rows), in the requested
// variant.
type modelDef struct {
	name string
	// layer names the model package for the host_ns_per_word and
	// sim_end_ns metrics ("pipeline" or "soc").
	layer string
	// singleKernel rows have schedule-independent kernel counters, so
	// Stats.ContextSwitches is pinned by the goldens.
	singleKernel bool
	run          func(ctx context.Context, v variant, reduced bool, seed int64) (modelOut, error)
}

// fig5 is one Fig. 5 row. refBlocks sizes the set-up's reference check:
// TDless pays three context switches per word, so the deep rows check
// 40 blocks (40 k words), not a twentieth of their millions.
func fig5(name string, depth, blocks, refBlocks, burst int) modelDef {
	return modelDef{name: name, layer: "pipeline", singleKernel: true,
		run: func(ctx context.Context, v variant, reduced bool, seed int64) (modelOut, error) {
			cfg := pipeline.Config{Mode: pipeline.TDfull, Depth: depth, Blocks: blocks,
				WordsPerBlock: 1000, Burst: burst, Seed: seed}
			if v == reference {
				cfg.Mode = pipeline.TDless
			}
			if reduced {
				cfg.Blocks = refBlocks
			}
			r, err := pipeline.RunCtx(ctx, cfg)
			if err != nil {
				return modelOut{}, err
			}
			return modelOut{kernelWall: r.Wall, dates: r.BlockDates, checksums: []uint64{r.Checksum},
				simEnd: r.SimEnd, stats: r.Stats, words: r.Words, shards: r.Shards}, nil
		}}
}

func socOut(r soc.Result, words int) modelOut {
	o := modelOut{kernelWall: r.Wall, checksums: r.Checksums, simEnd: r.SimEnd, stats: r.Stats,
		words: words, shards: r.Shards, advances: r.Advances, crossings: r.Crossings,
		bus: r.BusAccesses, flits: r.NoC.FlitsForwarded}
	for _, d := range r.JobDates {
		o.dates = append(o.dates, d...)
	}
	return o
}

var modelDefs = []modelDef{
	fig5("fig5_d1", 1, 100, 5, 0),
	fig5("fig5_deep", 1024, 4000, 40, 0),
	fig5("fig5_burst", 1024, 16000, 40, 64),
	{name: "soc_case", layer: "soc", singleKernel: true,
		run: func(ctx context.Context, v variant, reduced bool, seed int64) (modelOut, error) {
			cfg := soc.Config{Mode: soc.SmartFIFOs, Pipelines: 8, Jobs: 5, WordsPerJob: 4096, FIFODepth: 16,
				UseNoC: true, NoCPacketLen: 16, Quantum: 500 * sim.NS, WithDMA: true, Seed: seed}
			if v == reference {
				cfg.Mode = soc.SyncFIFOs
			}
			if reduced {
				cfg.Jobs, cfg.WordsPerJob = 1, 1024
			}
			r, err := soc.RunCtx(ctx, cfg)
			if err != nil {
				return modelOut{}, err
			}
			return socOut(r, cfg.Pipelines*cfg.Jobs*cfg.WordsPerJob), nil
		}},
	{name: "soc_shard2", layer: "soc",
		run: func(ctx context.Context, v variant, reduced bool, seed int64) (modelOut, error) {
			cfg := soc.Config{Pipelines: 8, Jobs: 20, WordsPerJob: 4096, FIFODepth: 16, Seed: seed}
			if reduced {
				cfg.Jobs = 1
			}
			// Two shards whatever the box: nproc and GOMAXPROCS are in
			// the stamp, not in the workload.
			shards := 2
			if v == reference {
				shards = 1
			}
			r, err := soc.RunClusteredCtx(ctx, cfg, shards)
			if err != nil {
				return modelOut{}, err
			}
			return socOut(r, cfg.Pipelines*cfg.Jobs*cfg.WordsPerJob), nil
		}},
}

// maxDateErr returns the largest absolute date difference, in simulated
// nanoseconds, between a run and its reference; a log of different
// length is reported as an error, not as a distance.
func maxDateErr(ref, got *modelOut) (float64, error) {
	if len(ref.dates) != len(got.dates) {
		return 0, fmt.Errorf("reference logged %d dates, the build under test %d", len(ref.dates), len(got.dates))
	}
	var worst sim.Time
	for i := range ref.dates {
		d := got.dates[i] - ref.dates[i]
		if d < 0 {
			d = -d
		}
		worst = max(worst, d)
	}
	if d := got.simEnd - ref.simEnd; d != 0 {
		worst = max(worst, max(d, -d))
	}
	return float64(worst) / float64(sim.NS), nil
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
