package pipeline_test

import (
	"testing"

	"fmt"
	"strings"

	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// small returns a quick configuration for tests.
func small(m pipeline.Mode, depth int) pipeline.Config {
	return pipeline.Config{
		Mode:          m,
		Depth:         depth,
		Blocks:        8,
		WordsPerBlock: 50,
		Seed:          3,
	}
}

func TestAllModesSameChecksum(t *testing.T) {
	ref := pipeline.Run(small(pipeline.TDless, 4))
	for _, m := range []pipeline.Mode{pipeline.Untimed, pipeline.TDfull} {
		r := pipeline.Run(small(m, 4))
		if r.Checksum != ref.Checksum {
			t.Errorf("%v checksum %x != TDless %x", m, r.Checksum, ref.Checksum)
		}
	}
	q := small(pipeline.Quantum, 4)
	q.QuantumValue = 100 * sim.NS
	if r := pipeline.Run(q); r.Checksum != ref.Checksum {
		t.Errorf("quantum checksum %x != TDless %x", r.Checksum, ref.Checksum)
	}
}

// TestTDfullExactAccuracy is the paper's claim on the benchmark system,
// the error column of Fig. 5: TDfull reproduces every TDless
// block-completion date exactly, at every depth of the figure's sweep,
// including depths larger than a block.
func TestTDfullExactAccuracy(t *testing.T) {
	for depth := 1; depth <= 1024; depth *= 2 {
		ref := pipeline.Run(small(pipeline.TDless, depth))
		got := pipeline.Run(small(pipeline.TDfull, depth))
		if ref.SimEnd != got.SimEnd {
			t.Errorf("depth %d: SimEnd %v != %v", depth, got.SimEnd, ref.SimEnd)
		}
		if e := pipeline.MaxTimingError(ref, got); e != 0 {
			t.Errorf("depth %d: TDfull timing error %v, want 0", depth, e)
		}
	}
}

// TestQuantumHasTimingError: the ablation's premise — with a large quantum
// the block dates drift, unlike TDfull.
func TestQuantumHasTimingError(t *testing.T) {
	depth := 4
	ref := pipeline.Run(small(pipeline.TDless, depth))
	q := small(pipeline.Quantum, depth)
	q.QuantumValue = 10 * sim.US
	got := pipeline.Run(q)
	if e := pipeline.MaxTimingError(ref, got); e == 0 {
		t.Error("quantum 10us produced zero timing error; ablation premise broken")
	}
}

// TestQuantumZeroIsTDless: quantum 0 degenerates to wait-per-annotation,
// hence exact timing.
func TestQuantumZeroIsTDless(t *testing.T) {
	depth := 2
	ref := pipeline.Run(small(pipeline.TDless, depth))
	q := small(pipeline.Quantum, depth)
	q.QuantumValue = 0
	got := pipeline.Run(q)
	if e := pipeline.MaxTimingError(ref, got); e != 0 {
		t.Errorf("quantum 0 timing error %v, want 0", e)
	}
	if ref.SimEnd != got.SimEnd {
		t.Errorf("SimEnd %v != %v", got.SimEnd, ref.SimEnd)
	}
}

// TestQuantumAblation is the §IV-B ablation: a quantum keeper buys fewer
// context switches with timing error, while TDfull needs no quantum to
// beat wait-per-annotation at zero error. Quantum 0 degenerates to
// wait-per-annotation, hence exact timing. The error is not monotone in
// the quantum, so only its sign is asserted.
func TestQuantumAblation(t *testing.T) {
	quanta := []sim.Time{0, 100 * sim.NS, sim.US, 10 * sim.US, 100 * sim.US}
	for _, depth := range []int{1, 4, 64} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			ref := pipeline.Run(small(pipeline.TDless, depth))
			var switches []uint64
			for _, q := range quanta {
				cfg := small(pipeline.Quantum, depth)
				cfg.QuantumValue = q
				r := pipeline.Run(cfg)
				e := pipeline.MaxTimingError(ref, r)
				switch {
				case q == 0 && (e != 0 || r.SimEnd != ref.SimEnd):
					t.Errorf("quantum 0: timing error %v, SimEnd %v (TDless %v); want exact", e, r.SimEnd, ref.SimEnd)
				case q > 0 && e == 0:
					t.Errorf("quantum %v: zero timing error; the ablation premise is broken", q)
				}
				if n := len(switches); n > 0 && r.Stats.ContextSwitches > switches[n-1] {
					t.Errorf("quantum %v: %d context switches, more than %d at quantum %v",
						q, r.Stats.ContextSwitches, switches[n-1], quanta[n-1])
				}
				switches = append(switches, r.Stats.ContextSwitches)
			}
			full := pipeline.Run(small(pipeline.TDfull, depth))
			if e := pipeline.MaxTimingError(ref, full); e != 0 {
				t.Errorf("TDfull timing error %v, want 0", e)
			}
			if full.Stats.ContextSwitches >= switches[0] {
				t.Errorf("TDfull: %d context switches, not below quantum 0's %d", full.Stats.ContextSwitches, switches[0])
			}
		})
	}
}

// TestContextSwitchShape verifies the Fig. 5 mechanism on switch counts
// (robust, unlike wall time, under `go test` noise):
//   - TDless is depth-independent (one switch per annotation);
//   - TDfull decreases with depth;
//   - at large depth TDfull does far fewer switches than TDless.
func TestContextSwitchShape(t *testing.T) {
	cs := func(m pipeline.Mode, depth int) uint64 {
		return pipeline.Run(small(m, depth)).Stats.ContextSwitches
	}
	tdless1, tdless64 := cs(pipeline.TDless, 1), cs(pipeline.TDless, 64)
	ratio := float64(tdless1) / float64(tdless64)
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("TDless switches vary with depth: d1=%d d64=%d", tdless1, tdless64)
	}
	full1, full4, full64 := cs(pipeline.TDfull, 1), cs(pipeline.TDfull, 4), cs(pipeline.TDfull, 64)
	if !(full1 > full4 && full4 > full64) {
		t.Errorf("TDfull switches not decreasing: %d, %d, %d", full1, full4, full64)
	}
	if full64*4 > tdless64 {
		t.Errorf("TDfull at depth 64 (%d switches) not ≪ TDless (%d)", full64, tdless64)
	}
	un1, un64 := cs(pipeline.Untimed, 1), cs(pipeline.Untimed, 64)
	if un64 >= un1 {
		t.Errorf("untimed switches not decreasing with depth: %d → %d", un1, un64)
	}
}

// TestSimEndReasonable: the simulated end date must be bounded below by the
// slowest stage's total service demand.
func TestSimEndReasonable(t *testing.T) {
	cfg := small(pipeline.TDless, 8)
	r := pipeline.Run(cfg)
	words := sim.Time(cfg.Blocks * cfg.WordsPerBlock)
	minEnd := words * 7 * sim.NS // transmitter is the fastest stage
	if r.SimEnd < minEnd {
		t.Errorf("SimEnd %v below service demand %v", r.SimEnd, minEnd)
	}
	if len(r.BlockDates) != cfg.Blocks {
		t.Errorf("got %d block dates, want %d", len(r.BlockDates), cfg.Blocks)
	}
}

// TestCustomRates exercises the rate-schedule plumbing.
func TestCustomRates(t *testing.T) {
	cfg := small(pipeline.TDless, 4)
	cfg.SourceRate = workload.Constant(5 * sim.NS)
	cfg.TransmitRate = workload.Constant(5 * sim.NS)
	cfg.SinkRate = workload.Constant(5 * sim.NS)
	ref := pipeline.Run(cfg)
	cfg.Mode = pipeline.TDfull
	got := pipeline.Run(cfg)
	if e := pipeline.MaxTimingError(ref, got); e != 0 {
		t.Errorf("timing error %v with constant rates", e)
	}
}

// TestRandomRatesAccuracy uses the random schedule on both modes.
func TestRandomRatesAccuracy(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		cfg := small(pipeline.TDless, 3)
		cfg.SourceRate = workload.Random(seed, 4, 5*sim.NS)
		cfg.TransmitRate = workload.Random(seed+100, 4, 5*sim.NS)
		cfg.SinkRate = workload.Random(seed+200, 4, 5*sim.NS)
		ref := pipeline.Run(cfg)
		cfg.Mode = pipeline.TDfull
		got := pipeline.Run(cfg)
		if e := pipeline.MaxTimingError(ref, got); e != 0 {
			t.Errorf("seed %d: timing error %v", seed, e)
		}
	}
}

// blockTrace turns a result's dated block completions into a trace, so the
// §IV-A equivalence framework can compare runs.
func blockTrace(r pipeline.Result) *trace.Recorder {
	rec := trace.NewRecorder()
	for i, d := range r.BlockDates {
		rec.Log(trace.Entry{Date: d, Proc: "sink", Msg: fmt.Sprintf("block %d sum", i)})
	}
	rec.Log(trace.Entry{Date: r.SimEnd, Proc: "sink", Msg: fmt.Sprintf("checksum %x", r.Checksum)})
	return rec
}

// TestShardedRunMatchesSingleKernel pins the tentpole claim on the Fig. 5
// model: partitioning the three modules over 2 or 3 shards changes the
// wall-clock schedule but not a single date or value.
func TestShardedRunMatchesSingleKernel(t *testing.T) {
	for _, depth := range []int{1, 4, 64} {
		cfg := small(pipeline.TDfull, depth)
		ref := pipeline.Run(cfg)
		refTrace := blockTrace(ref)
		for _, shards := range []int{2, 3} {
			cfg.Shards = shards
			r := pipeline.Run(cfg)
			if r.Shards != shards {
				t.Fatalf("depth %d: want %d shards, ran with %d", depth, shards, r.Shards)
			}
			if d := trace.Diff(refTrace, blockTrace(r)); d != "" {
				t.Errorf("depth %d, %d shards: trace differs from single kernel:\n%s", depth, shards, d)
			}
			if r.Advances == 0 {
				t.Errorf("depth %d, %d shards: no coordinator advances recorded", depth, shards)
			}
		}
	}
}

// TestShardedTDlessPanics: only TDfull carries the dates that make
// sharding conservative.
func TestShardedTDlessPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("sharding a TDless run should panic")
		}
	}()
	cfg := small(pipeline.TDless, 4)
	cfg.Shards = 2
	pipeline.Run(cfg)
}

// TestShardsBeyondModulesPanics pins the lifted clamp's replacement: more
// shards than modules is a clear error, not a silent clamp to 3.
func TestShardsBeyondModulesPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("shards > modules should panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "3 partitionable units") {
			t.Fatalf("panic message %q does not name the unit count", msg)
		}
	}()
	cfg := small(pipeline.TDfull, 4)
	cfg.Shards = 5
	pipeline.Run(cfg)
}

// TestPartitionerEquivalence: every registered partitioner at every legal
// shard count reproduces the single-kernel dates, and mincut cuts fewer
// channels than roundrobin at 2 shards.
func TestPartitionerEquivalence(t *testing.T) {
	cfg := small(pipeline.TDfull, 4)
	refTrace := blockTrace(pipeline.Run(cfg))
	crossings := map[string]int{}
	for _, part := range []string{"single", "roundrobin", "mincut"} {
		for shards := 1; shards <= 3; shards++ {
			c := cfg
			c.Shards, c.Partitioner = shards, part
			r := pipeline.Run(c)
			if d := trace.Diff(refTrace, blockTrace(r)); d != "" {
				t.Errorf("%s/%d shards: trace differs:\n%s", part, shards, d)
			}
			if shards == 2 {
				crossings[part] = r.Crossings
			}
		}
	}
	if crossings["mincut"] >= crossings["roundrobin"] {
		t.Errorf("mincut crossings (%d) not below roundrobin (%d) at 2 shards",
			crossings["mincut"], crossings["roundrobin"])
	}
	if crossings["single"] != 0 {
		t.Errorf("single partitioner crossed %d channels", crossings["single"])
	}
}
