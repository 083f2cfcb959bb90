// Videopipe: the paper's motivating workload — "the most intensive
// computations, such as video decoding, are done by application-specific
// hardware accelerators" — as a Kahn process network: a bitstream source
// feeding entropy decode → inverse transform → deblocking filter →
// display, with per-stage word rates and frame-boundary reporting.
//
// The network runs twice through kpn.Verify (regular FIFOs without
// decoupling vs Smart FIFOs with decoupling) to show identical dated
// frame traces, then once more decoupled to report speed.
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/kpn"
	"repro/internal/sim"
	"repro/internal/workload"
)

const (
	frames      = 24
	macroblocks = 99 // per frame (QCIF-ish)
	wordsPerMB  = 6
)

// build assembles the decoder network; it is mode-independent, which is
// what lets kpn.Verify compare the two implementations.
func build(net *kpn.Network) {
	bits := kpn.Channel[uint32](net, "bitstream", 32)
	syms := kpn.Channel[uint32](net, "symbols", 16)
	pix := kpn.Channel[uint32](net, "pixels", 16)
	out := kpn.Channel[uint32](net, "display", 64)
	total := frames * macroblocks * wordsPerMB

	net.Actor("source", func(a *kpn.Actor) {
		for i := 0; i < total; i++ {
			bits.Write(workload.WordAt(7, i))
			a.Delay(4 * sim.NS) // DMA from memory
		}
	})
	net.Actor("entropy", func(a *kpn.Actor) {
		for i := 0; i < total; i++ {
			w := bits.Read()
			// Data-dependent decode time: 2..9 ns.
			a.Delay(sim.Time(2+w%8) * sim.NS)
			syms.Write(w ^ 0x5a5a5a5a)
		}
	})
	net.Actor("idct", func(a *kpn.Actor) {
		for i := 0; i < total; i++ {
			w := syms.Read()
			a.Delay(5 * sim.NS)
			pix.Write(w>>1 + 3)
		}
	})
	net.Actor("deblock", func(a *kpn.Actor) {
		var prev uint32
		for i := 0; i < total; i++ {
			w := pix.Read()
			a.Delay(3 * sim.NS)
			out.Write((w + prev) / 2)
			prev = w
		}
	})
	net.Actor("display", func(a *kpn.Actor) {
		sum := uint64(0)
		for f := 0; f < frames; f++ {
			for i := 0; i < macroblocks*wordsPerMB; i++ {
				sum = workload.Checksum(sum, out.Read())
			}
			a.Delay(2 * sim.NS)
			a.Logf("frame %d done, checksum %x", f, sum)
		}
	})
}

func main() { run(os.Stdout) }

// run verifies the network's two builds and prints their speed.
func run(w io.Writer) {
	fmt.Fprintf(w, "video decoder KPN: %d frames x %d macroblocks x %d words\n\n",
		frames, macroblocks, wordsPerMB)

	if d := kpn.Verify("videopipe", build); d != "" {
		fmt.Fprintln(w, "ACCURACY VIOLATION:", d)
		return
	}
	fmt.Fprintln(w, "verify: decoupled Smart FIFO trace == non-decoupled reference trace")

	simulate := func(decoupled bool) (time.Duration, uint64, sim.Time) {
		net := kpn.New("videopipe", decoupled)
		build(net)
		start := time.Now()
		if err := net.Run(); err != nil {
			panic(err)
		}
		wall := time.Since(start)
		var last sim.Time
		for _, e := range net.Trace().Sorted() {
			last = e.Date
		}
		return wall, uint64(net.K.Stats().ContextSwitches), last
	}
	refWall, refSw, refEnd := simulate(false)
	tdWall, tdSw, tdEnd := simulate(true)
	fmt.Fprintf(w, "\nreference: wall %10v  ctx switches %8d  last frame at %v\n", refWall, refSw, refEnd)
	fmt.Fprintf(w, "decoupled: wall %10v  ctx switches %8d  last frame at %v\n", tdWall, tdSw, tdEnd)
	fmt.Fprintf(w, "speedup: %.1fx at identical frame dates\n", float64(refWall)/float64(tdWall))
}
