// Pipeline: a small interactive version of the paper's §IV-B benchmark —
// source → transmitter → sink over two FIFOs — swept over FIFO depths in
// all three modes, printing a miniature Fig. 5 plus the proof that TDfull
// keeps the exact TDless timing.
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/pipeline"
	"repro/internal/sim"
)

func main() { run(os.Stdout) }

// run prints the depth sweep, then the quantum ablation.
func run(w io.Writer) {
	const blocks, words = 50, 1000
	fmt.Fprintf(w, "mini Fig. 5 — %d blocks x %d words\n\n", blocks, words)
	fmt.Fprintf(w, "%6s  %-8s  %10s  %12s  %10s\n", "depth", "mode", "wall", "switches", "timing err")
	for _, depth := range []int{1, 2, 4, 16, 64} {
		var ref pipeline.Result
		for _, m := range []pipeline.Mode{pipeline.Untimed, pipeline.TDless, pipeline.TDfull} {
			r := pipeline.Run(pipeline.Config{
				Mode: m, Depth: depth, Blocks: blocks, WordsPerBlock: words,
			})
			errStr := "-"
			if m == pipeline.TDless {
				ref = r
			}
			if m == pipeline.TDfull {
				errStr = pipeline.MaxTimingError(ref, r).String()
			}
			fmt.Fprintf(w, "%6d  %-8s  %10v  %12d  %10s\n", depth, m, r.Wall.Round(10*1000), r.Stats.ContextSwitches, errStr)
		}
	}

	// The quantum alternative: fast, but pays with timing error.
	fmt.Fprintf(w, "\nquantum-keeper ablation at depth 4:\n")
	ref := pipeline.Run(pipeline.Config{Mode: pipeline.TDless, Depth: 4, Blocks: blocks, WordsPerBlock: words})
	for _, q := range []sim.Time{0, 100 * sim.NS, 10 * sim.US} {
		r := pipeline.Run(pipeline.Config{
			Mode: pipeline.Quantum, QuantumValue: q, Depth: 4, Blocks: blocks, WordsPerBlock: words,
		})
		fmt.Fprintf(w, "  quantum %8v: wall %10v  max timing error %v\n",
			q, r.Wall.Round(10*1000), pipeline.MaxTimingError(ref, r))
	}
	smart := pipeline.Run(pipeline.Config{Mode: pipeline.TDfull, Depth: 4, Blocks: blocks, WordsPerBlock: words})
	fmt.Fprintf(w, "  Smart FIFO      : wall %10v  max timing error %v (no quantum to tune)\n",
		smart.Wall.Round(10*1000), pipeline.MaxTimingError(ref, smart))
}
