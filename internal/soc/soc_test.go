package soc_test

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/soc"
)

func small(mode soc.FIFOMode, useNoC bool) soc.Config {
	return soc.Config{
		Mode:         mode,
		Pipelines:    3,
		Jobs:         2,
		WordsPerJob:  64,
		FIFODepth:    8,
		UseNoC:       useNoC,
		NoCPacketLen: 8,
		Quantum:      200 * sim.NS,
		WithDMA:      true,
		Seed:         11,
	}
}

func TestSoCCompletes(t *testing.T) {
	r := soc.Run(small(soc.SmartFIFOs, false))
	if len(r.Checksums) != 4 { // 3 sinks + DMA
		t.Fatalf("checksums = %d entries, want 4", len(r.Checksums))
	}
	for i, d := range r.JobDates {
		if len(d) != 2 {
			t.Errorf("pipeline %d completed %d jobs, want 2", i, len(d))
		}
	}
	if r.SimEnd == 0 {
		t.Error("SimEnd = 0")
	}
	if r.BusAccesses == 0 {
		t.Error("no bus traffic recorded")
	}
}

// TestSmartEqualsSyncAccuracy is the §IV-C accuracy statement at SoC
// scale: both FIFO implementations yield identical checksums and job
// completion dates ("both versions provide the same timing accuracy").
func TestSmartEqualsSyncAccuracy(t *testing.T) {
	for _, useNoC := range []bool{false, true} {
		t.Run(fmt.Sprintf("noc=%v", useNoC), func(t *testing.T) {
			smart := soc.Run(small(soc.SmartFIFOs, useNoC))
			sync := soc.Run(small(soc.SyncFIFOs, useNoC))
			if fmt.Sprint(smart.Checksums) != fmt.Sprint(sync.Checksums) {
				t.Errorf("checksums differ:\nsmart %x\nsync  %x", smart.Checksums, sync.Checksums)
			}
			if fmt.Sprint(smart.JobDates) != fmt.Sprint(sync.JobDates) {
				t.Errorf("job dates differ:\nsmart %v\nsync  %v", smart.JobDates, sync.JobDates)
			}
			if smart.SimEnd != sync.SimEnd {
				t.Errorf("SimEnd: smart %v sync %v", smart.SimEnd, sync.SimEnd)
			}
		})
	}
}

// TestSmartFewerContextSwitches: the mechanism behind the paper's 42.3%
// gain — the Smart FIFO build does substantially fewer context switches
// for the same simulated behaviour.
func TestSmartFewerContextSwitches(t *testing.T) {
	smart := soc.Run(small(soc.SmartFIFOs, true))
	sync := soc.Run(small(soc.SyncFIFOs, true))
	if smart.Stats.ContextSwitches*2 > sync.Stats.ContextSwitches {
		t.Errorf("smart switches %d not ≪ sync switches %d",
			smart.Stats.ContextSwitches, sync.Stats.ContextSwitches)
	}
}

func TestNoCTrafficWhenEnabled(t *testing.T) {
	r := soc.Run(small(soc.SmartFIFOs, true))
	if r.NoC.PacketsInjected == 0 || r.NoC.PacketsDelivered != r.NoC.PacketsInjected {
		t.Errorf("NoC packets injected/delivered = %d/%d", r.NoC.PacketsInjected, r.NoC.PacketsDelivered)
	}
	if r.NoC.FlitsForwarded == 0 {
		t.Error("no flits forwarded despite UseNoC")
	}
}

func TestMonitorLevelsObserved(t *testing.T) {
	r := soc.Run(small(soc.SmartFIFOs, false))
	// The control core polls scale's input level; with a fast generator
	// it must observe a non-zero level at least once over the run.
	any := false
	for _, l := range r.MaxLevels {
		if l > 0 {
			any = true
		}
		if l > 8 {
			t.Errorf("observed level %d above FIFO depth 8", l)
		}
	}
	if !any {
		t.Error("monitor never observed a non-empty FIFO")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a := soc.Run(small(soc.SmartFIFOs, true))
	b := soc.Run(small(soc.SmartFIFOs, true))
	if fmt.Sprint(a.Checksums) != fmt.Sprint(b.Checksums) ||
		fmt.Sprint(a.JobDates) != fmt.Sprint(b.JobDates) ||
		a.Stats.ContextSwitches != b.Stats.ContextSwitches {
		t.Error("two identical runs differ")
	}
}

// TestCaseStudyKernelCounters pins every kernel counter of the benchmark's
// SoC case study at its reduced scale (Jobs 1, WordsPerJob 1024). Any
// change to same-date firing order (the timed queue's (at, seq) tie-break)
// or to NoC routing shows up here as a counter or date that moved.
func TestCaseStudyKernelCounters(t *testing.T) {
	r := soc.Run(soc.Config{Mode: soc.SmartFIFOs, Pipelines: 8, Jobs: 1, WordsPerJob: 1024,
		FIFODepth: 16, UseNoC: true, NoCPacketLen: 16, Quantum: 500 * sim.NS, WithDMA: true, Seed: 1})
	want := sim.Stats{
		ContextSwitches:   3961,
		MethodActivations: 69653,
		DeltaCycles:       8010,
		TimedSteps:        3978,
		Notifications:     89660,
	}
	if r.Stats != want {
		t.Errorf("kernel counters %+v, want %+v", r.Stats, want)
	}
	if r.SimEnd != 4157*sim.NS {
		t.Errorf("SimEnd = %v, want 4157 ns", r.SimEnd)
	}
	if r.NoC.FlitsForwarded != 18432 {
		t.Errorf("FlitsForwarded = %d, want 18432", r.NoC.FlitsForwarded)
	}
}

func TestBadPacketMultiplePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for WordsPerJob not multiple of NoCPacketLen")
		}
	}()
	cfg := small(soc.SmartFIFOs, true)
	cfg.WordsPerJob = 65
	soc.Run(cfg)
}
