// Waveform: dump Smart FIFO fill levels to a VCD file for a waveform
// viewer (GTKWave etc.). The probe reads levels through the monitor
// interface (§III-C), so what lands in the waveform is exactly what the
// modeled embedded software would read at each date — even though the
// producer and consumer run far ahead of the global clock.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/vcd"
)

func main() {
	out := flag.String("o", "fifolevels.vcd", "output VCD file")
	flag.Parse()
	if err := run(os.Stdout, *out); err != nil {
		log.Fatal(err)
	}
}

// run simulates the two-FIFO chain, writes the probed levels to the VCD
// file vcdPath and prints a summary to w.
func run(w io.Writer, vcdPath string) error {
	k := sim.NewKernel("waveform")
	f1 := core.NewSmart[int](k, "f1", 16)
	f2 := core.NewSmart[int](k, "f2", 8)

	const n = 400
	k.Thread("source", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			f1.Write(i)
			// Bursty: 20 fast words, then a gap.
			if (i+1)%20 == 0 {
				p.Inc(300 * sim.NS)
			} else {
				p.Inc(5 * sim.NS)
			}
		}
	})
	k.Thread("relay", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			v := f1.Read()
			p.Inc(12 * sim.NS)
			f2.Write(v)
		}
	})
	k.Thread("sink", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			f2.Read()
			p.Inc(15 * sim.NS)
		}
	})

	file, err := os.Create(vcdPath)
	if err != nil {
		return err
	}
	defer file.Close()
	vw := vcd.NewWriter(file)
	const horizon = 10 * sim.US
	vcd.ProbeFIFO(k, vw, f1, "f1.level", 25*sim.NS, horizon)
	vcd.ProbeFIFO(k, vw, f2, "f2.level", 25*sim.NS, horizon)

	k.Run(sim.RunForever)
	k.Shutdown()
	if err := vw.Close(); err != nil {
		return err
	}
	if err := file.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "simulated %v, wrote %s (open with a VCD viewer)\n", k.Now(), vcdPath)
	fmt.Fprintf(w, "f1: %d writes, %d reader blocks; f2: %d writes, %d writer blocks\n",
		f1.Stats().Writes, f1.Stats().ReaderBlocks, f2.Stats().Writes, f2.Stats().WriterBlocks)
	return nil
}
