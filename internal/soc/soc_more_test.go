package soc_test

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/soc"
)

// TestSmartEqualsSyncAcrossConfigs widens the §IV-C accuracy check over a
// grid of SoC shapes: depths, pipeline counts, packet sizes, quanta, DMA
// on/off.
func TestSmartEqualsSyncAcrossConfigs(t *testing.T) {
	configs := []soc.Config{
		{Pipelines: 1, Jobs: 1, WordsPerJob: 32, FIFODepth: 1, Quantum: 100 * sim.NS},
		{Pipelines: 2, Jobs: 3, WordsPerJob: 48, FIFODepth: 2, Quantum: 50 * sim.NS, WithDMA: true},
		{Pipelines: 5, Jobs: 2, WordsPerJob: 60, FIFODepth: 4, UseNoC: true, NoCPacketLen: 4, Quantum: 1 * sim.US},
		{Pipelines: 4, Jobs: 2, WordsPerJob: 64, FIFODepth: 32, UseNoC: true, NoCPacketLen: 16, Quantum: 2 * sim.US, WithDMA: true},
		{Pipelines: 3, Jobs: 4, WordsPerJob: 40, FIFODepth: 8, Quantum: 10 * sim.NS, PollPeriod: 50 * sim.NS},
	}
	// Shapes whose job dates differed across builds while device status
	// was published at the device's local date instead of the kernel's:
	// the failures of a 288-point matrix (pipelines {2,4,8} x jobs {3,5} x
	// words {256,1024,2048} x depth {4,16} x DMA x NoC x quantum
	// {100,500} ns), then the examples/soc shape over control quanta.
	for _, jobs := range []int{3, 5} {
		for _, noc := range []bool{false, true} {
			for _, q := range []sim.Time{100 * sim.NS, 500 * sim.NS} {
				configs = append(configs,
					soc.Config{Pipelines: 2, Jobs: jobs, WordsPerJob: 2048, FIFODepth: 16, UseNoC: noc, Quantum: q},
					soc.Config{Pipelines: 2, Jobs: jobs, WordsPerJob: 1024, FIFODepth: 16, UseNoC: noc, Quantum: q, WithDMA: true},
					soc.Config{Pipelines: 4, Jobs: jobs, WordsPerJob: 2048, FIFODepth: 16, UseNoC: noc, Quantum: q, WithDMA: true})
			}
		}
	}
	for _, q := range []sim.Time{1 * sim.NS, 10 * sim.NS, 500 * sim.NS, 10 * sim.US} {
		configs = append(configs, soc.Config{Pipelines: 4, Jobs: 5, WordsPerJob: 2048, FIFODepth: 16,
			UseNoC: true, NoCPacketLen: 16, Quantum: q, WithDMA: true})
	}
	for i, cfg := range configs {
		cfg := cfg
		t.Run(fmt.Sprintf("cfg%d", i), func(t *testing.T) {
			t.Parallel()
			cfg.Seed = int64(i + 1)
			cfg.Mode = soc.SmartFIFOs
			smart := soc.Run(cfg)
			cfg.Mode = soc.SyncFIFOs
			sync := soc.Run(cfg)
			if fmt.Sprint(smart.Checksums) != fmt.Sprint(sync.Checksums) {
				t.Errorf("checksums differ:\nsmart %x\nsync  %x", smart.Checksums, sync.Checksums)
			}
			if fmt.Sprint(smart.JobDates) != fmt.Sprint(sync.JobDates) {
				t.Errorf("job dates differ:\nsmart %v\nsync  %v", smart.JobDates, sync.JobDates)
			}
		})
	}
}

// TestJobDatesIncreaseWithWork: more words per job must push completion
// dates out (sanity of the timing model).
func TestJobDatesIncreaseWithWork(t *testing.T) {
	base := small(soc.SmartFIFOs, false)
	base.Jobs = 1
	short := soc.Run(base)
	base.WordsPerJob *= 4
	long := soc.Run(base)
	for i := range short.JobDates {
		if long.JobDates[i][0] <= short.JobDates[i][0] {
			t.Errorf("pipeline %d: 4x work finished no later (%v vs %v)",
				i, long.JobDates[i][0], short.JobDates[i][0])
		}
	}
}

// TestQuantumAffectsControlNotStreams: shrinking the control core's
// quantum must not change the accelerators' job dates (the FIFO side needs
// no quantum — the paper's independence claim).
func TestQuantumAffectsControlNotStreams(t *testing.T) {
	a := small(soc.SmartFIFOs, false)
	a.Quantum = 50 * sim.NS
	b := small(soc.SmartFIFOs, false)
	b.Quantum = 5 * sim.US
	ra, rb := soc.Run(a), soc.Run(b)
	// Job *dates* can shift slightly because the control core issues
	// start commands at quantum-rounded dates; checksums must be
	// identical, and with the same PollPeriod the dates must still be
	// equal here because commands are issued at the same dates in both
	// runs (writes synchronize the initiator through the register
	// file's natural ordering).
	if fmt.Sprint(ra.Checksums) != fmt.Sprint(rb.Checksums) {
		t.Errorf("checksums differ across quanta:\n%x\n%x", ra.Checksums, rb.Checksums)
	}
}

// TestIRQModeCompletesAndBeatsPolling: interrupt-driven control yields the
// same data as polling, and reacts at exact completion dates, so no job
// round ever starts later than under polling (which rounds reaction up to
// the poll period).
func TestIRQModeCompletesAndBeatsPolling(t *testing.T) {
	base := small(soc.SmartFIFOs, true)
	polled := soc.Run(base)
	base.UseIRQ = true
	irq := soc.Run(base)
	if fmt.Sprint(polled.Checksums) != fmt.Sprint(irq.Checksums) {
		t.Errorf("checksums differ:\npoll %x\nirq  %x", polled.Checksums, irq.Checksums)
	}
	for i := range polled.JobDates {
		for j := range polled.JobDates[i] {
			if irq.JobDates[i][j] > polled.JobDates[i][j] {
				t.Errorf("pipeline %d job %d: IRQ date %v after polled date %v",
					i, j, irq.JobDates[i][j], polled.JobDates[i][j])
			}
		}
	}
}

// TestIRQModeSmartEqualsSync: the §IV-C accuracy statement holds under
// interrupt-driven control too.
func TestIRQModeSmartEqualsSync(t *testing.T) {
	cfg := small(soc.SmartFIFOs, true)
	cfg.UseIRQ = true
	smart := soc.Run(cfg)
	cfg.Mode = soc.SyncFIFOs
	sync := soc.Run(cfg)
	if fmt.Sprint(smart.Checksums) != fmt.Sprint(sync.Checksums) {
		t.Errorf("checksums differ:\nsmart %x\nsync  %x", smart.Checksums, sync.Checksums)
	}
	if fmt.Sprint(smart.JobDates) != fmt.Sprint(sync.JobDates) {
		t.Errorf("job dates differ:\nsmart %v\nsync  %v", smart.JobDates, sync.JobDates)
	}
	if smart.SimEnd != sync.SimEnd {
		t.Errorf("SimEnd: smart %v sync %v", smart.SimEnd, sync.SimEnd)
	}
}

// TestIRQModeFewerBusAccesses: interrupts cut the control core's polling
// traffic.
func TestIRQModeFewerBusAccesses(t *testing.T) {
	base := small(soc.SmartFIFOs, false)
	base.Jobs = 4
	base.WordsPerJob = 256
	polled := soc.Run(base)
	base.UseIRQ = true
	irq := soc.Run(base)
	if irq.BusAccesses >= polled.BusAccesses {
		t.Errorf("IRQ mode bus accesses (%d) not below polling (%d)",
			irq.BusAccesses, polled.BusAccesses)
	}
}
