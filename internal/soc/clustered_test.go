package soc_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/soc"
	"repro/internal/trace"
)

func clusteredCfg() soc.Config {
	return soc.Config{
		Pipelines:   4,
		Jobs:        3,
		WordsPerJob: 96,
		FIFODepth:   8,
		Seed:        7,
	}
}

// jobTrace turns a result's dated job completions and checksums into a
// trace for the §IV-A equivalence framework. MaxLevels is deliberately
// excluded: the monitor samples in-flight state, which is
// schedule-dependent by design.
func jobTrace(r soc.Result) *trace.Recorder {
	rec := trace.NewRecorder()
	for i, dates := range r.JobDates {
		for j, d := range dates {
			rec.Log(trace.Entry{Date: d, Proc: fmt.Sprintf("p%d.sink", i), Msg: fmt.Sprintf("job %d done", j)})
		}
		rec.Log(trace.Entry{Date: r.SimEnd, Proc: fmt.Sprintf("p%d.sink", i), Msg: fmt.Sprintf("checksum %x", r.Checksums[i])})
	}
	return rec
}

// TestClusteredShardEquivalence pins the tentpole claim on the SoC case
// study: the clustered model produces identical job completion dates and
// checksums on 1 kernel and on N kernels.
func TestClusteredShardEquivalence(t *testing.T) {
	cfg := clusteredCfg()
	ref := soc.RunClustered(cfg, 1)
	if ref.SimEnd == 0 || len(ref.JobDates) != cfg.Pipelines {
		t.Fatalf("reference run looks empty: %+v", ref)
	}
	for _, p := range ref.JobDates {
		if len(p) != cfg.Jobs {
			t.Fatalf("reference run completed %d/%d jobs: %v", len(p), cfg.Jobs, ref.JobDates)
		}
	}
	refTrace := jobTrace(ref)
	for _, shards := range []int{2, 4} {
		r := soc.RunClustered(cfg, shards)
		if r.Shards != shards {
			t.Fatalf("want %d shards, ran with %d", shards, r.Shards)
		}
		if d := trace.Diff(refTrace, jobTrace(r)); d != "" {
			t.Errorf("%d shards: trace differs from 1-shard reference:\n%s", shards, d)
		}
		if r.Advances == 0 {
			t.Errorf("%d shards: no coordinator advances recorded", shards)
		}
	}
}

// TestClusteredMatchesWorkload: each pipeline's checksum is that of its
// own seeded stream, so data really crossed the cluster ring unmangled.
func TestClusteredMatchesWorkload(t *testing.T) {
	cfg := clusteredCfg()
	r := soc.RunClustered(cfg, 2)
	seen := map[uint64]bool{}
	for i, sum := range r.Checksums {
		if sum == 0 {
			t.Errorf("pipeline %d checksum is zero", i)
		}
		if seen[sum] {
			t.Errorf("pipeline %d checksum %x duplicates another pipeline (seeds differ, streams must too)", i, sum)
		}
		seen[sum] = true
	}
	if r.BusAccesses == 0 {
		t.Error("no bus accesses recorded: the memory-mapped side did not run")
	}
}

// TestClusteredShardOverflowPanics: shard counts beyond the cluster
// count are a clear error, not a silent clamp (a cluster is the model's
// colocation unit).
func TestClusteredShardOverflowPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("shards > clusters should panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "clusters") {
			t.Fatalf("panic message %q does not explain the cluster limit", msg)
		}
	}()
	soc.RunClustered(clusteredCfg(), 64)
}

// TestClusteredParallelSpeedup checks the point of sharding: on a
// multi-core host, N kernels beat 1. Skipped on small machines — with
// fewer than 4 usable cores the coordination overhead cannot amortize.
func TestClusteredParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("skipping parallel speedup gate: need >= 4 usable cores, have %d (single-core runner cannot exhibit real-core speedup)", runtime.GOMAXPROCS(0))
	}
	cfg := soc.Config{Pipelines: 8, Jobs: 6, WordsPerJob: 4096, FIFODepth: 64, Seed: 7}
	// Best-of-3 per shard count: one scheduling hiccup on a busy CI
	// runner must not fail the gate.
	best := func(shards int) soc.Result {
		r := soc.RunClustered(cfg, shards)
		for i := 0; i < 2; i++ {
			if n := soc.RunClustered(cfg, shards); n.Wall < r.Wall {
				r = n
			}
		}
		return r
	}
	single := best(1)
	multi := best(4)
	speedup := float64(single.Wall) / float64(multi.Wall)
	t.Logf("1 kernel %v, 4 kernels %v: speedup %.2fx over %d advances",
		single.Wall, multi.Wall, speedup, multi.Advances)
	if speedup <= 1.0 {
		t.Errorf("perf gate: clustered-4 did not beat clustered-1: %.2fx", speedup)
	}
}
