// SoC: the paper's §IV-C case study end to end — a heterogeneous SoC with
// a control core on a memory-mapped bus, DMA, accelerator pipelines wired
// by FIFOs, and a stream NoC with packetizing network interfaces. The
// model runs twice (sync-on-access FIFOs vs Smart FIFOs) and demonstrates
// the paper's result: a large simulation speedup at *identical* timing.
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/sim"
	"repro/internal/soc"
)

func main() { run(os.Stdout) }

// run simulates the SoC on both builds and prints the comparison.
func run(w io.Writer) {
	cfg := soc.Config{
		Pipelines:    4,
		Jobs:         5,
		WordsPerJob:  2048,
		FIFODepth:    16,
		UseNoC:       true,
		NoCPacketLen: 16,
		Quantum:      500 * sim.NS,
		WithDMA:      true,
	}
	fmt.Fprintf(w, "SoC: %d accelerator pipelines (odd ones via the NoC), %d jobs x %d words, DMA on\n\n",
		cfg.Pipelines, cfg.Jobs, cfg.WordsPerJob)

	cfg.Mode = soc.SyncFIFOs
	sync := soc.Run(cfg)
	cfg.Mode = soc.SmartFIFOs
	smart := soc.Run(cfg)

	for _, r := range []soc.Result{sync, smart} {
		fmt.Fprintf(w, "%-6s  wall %12v  ctx switches %9d  bus accesses %6d\n",
			r.Mode, r.Wall, r.Stats.ContextSwitches, r.BusAccesses)
	}
	fmt.Fprintf(w, "\nwall-time gain: %.1f%%\n", 100*(1-float64(smart.Wall)/float64(sync.Wall)))
	fmt.Fprintf(w, "job dates identical: %v\n", fmt.Sprint(smart.JobDates) == fmt.Sprint(sync.JobDates))
	fmt.Fprintf(w, "checksums identical: %v\n", fmt.Sprint(smart.Checksums) == fmt.Sprint(sync.Checksums))
	fmt.Fprintf(w, "NoC traffic: %d packets, %d flit-hops\n", smart.NoC.PacketsInjected, smart.NoC.FlitsForwarded)

	fmt.Fprintln(w, "\nper-pipeline job completion dates (Smart FIFO build):")
	for i, dates := range smart.JobDates {
		fmt.Fprintf(w, "  pipeline %d: %v\n", i, dates)
	}
	fmt.Fprintf(w, "\nmonitor-observed max sink-input FIFO levels: %v\n", smart.MaxLevels)
}
