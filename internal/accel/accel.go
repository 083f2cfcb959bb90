// Package accel models the hardware accelerators of the case-study SoC
// (paper §IV-C): stream kernels implemented as temporally decoupled thread
// processes, fully annotated with per-word timings, communicating through
// FIFO channels and controlled by memory-mapped register files.
//
// Each accelerator is controlled by embedded software through its register
// file: the controller programs a job (word count), sets the start bit and
// polls the status register; the live FIFO-level registers expose the
// monitor interface of the attached channels ("knowing the FIFO filling
// levels can be used for debug and dynamic performance tuning").
//
// Device state is dated like a Smart FIFO cell (§III-B): a job completes
// at the device's local date, and the status and jobs-done registers
// publish it only once the kernel's date — not the reader's — reaches it,
// so a decoupled device that finished early reads like a synchronized one.
package accel

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/fifo"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Register indices within an accelerator's register file.
const (
	// RegCtrl starts a job when written with 1.
	RegCtrl = 0
	// RegWords holds the job length in words (input words).
	RegWords = 1
	// RegStatus reads 1 while a job is queued, running or not yet due
	// (package doc), 0 when idle.
	RegStatus = 2
	// RegJobsDone counts the completed jobs that are due.
	RegJobsDone = 3
	// RegInLevel reads the input FIFO fill level (live monitor access).
	RegInLevel = 4
	// RegOutLevel reads the output FIFO fill level (live monitor access).
	RegOutLevel = 5
	// NumRegs is the register file size.
	NumRegs = 6
)

// Kind selects the stream kernel an accelerator runs.
type Kind int

const (
	// Generator produces pseudo-random words (no input).
	Generator Kind = iota
	// Scale multiplies each word by Factor.
	Scale
	// FIR applies a small finite-impulse-response filter.
	FIR
	// Decimate forwards one word out of Factor.
	Decimate
	// Sink consumes words into a running checksum (no output).
	Sink
)

// String names the kind.
func (kd Kind) String() string {
	switch kd {
	case Generator:
		return "generator"
	case Scale:
		return "scale"
	case FIR:
		return "fir"
	case Decimate:
		return "decimate"
	case Sink:
		return "sink"
	}
	return fmt.Sprintf("Kind(%d)", int(kd))
}

// Config parameterizes an accelerator.
type Config struct {
	// Kind selects the kernel.
	Kind Kind
	// In and Out are the stream channel endpoints; Generator needs no
	// In, Sink no Out. The end interfaces (rather than full Channels)
	// let a sharded model hand an accelerator one endpoint of a
	// core.ShardedFIFO whose other side lives on a different kernel.
	In  fifo.ReadEnd[uint32]
	Out fifo.WriteEnd[uint32]
	// WordLat is the per-word processing latency.
	WordLat sim.Time
	// Factor parameterizes Scale (multiplier) and Decimate (keep 1 in
	// Factor).
	Factor uint32
	// Taps are the FIR coefficients (defaults to {1, 2, 3, 2, 1}).
	Taps []uint32
	// Seed feeds the Generator.
	Seed int64
	// IRQ, if non-nil, receives a Raise(IRQLine) at each job completion
	// (dated with the accelerator's local clock).
	IRQ *bus.IRQController
	// IRQLine is the interrupt line to raise.
	IRQLine int
}

// Accel is one hardware accelerator: a decoupled thread running a stream
// kernel, controlled through its register file.
type Accel struct {
	controller
	cfg Config

	produced int      // total words generated (Generator word index)
	checksum uint64   // everything a Sink consumed
	buf      []uint32 // bulk-transfer staging buffer of the stream endpoints
}

// New creates an accelerator and registers its thread process.
func New(k *sim.Kernel, name string, cfg Config) *Accel {
	if cfg.Kind != Generator && cfg.In == nil {
		panic(fmt.Sprintf("accel: %s: kind %v needs an input channel", name, cfg.Kind))
	}
	if cfg.Kind != Sink && cfg.Out == nil {
		panic(fmt.Sprintf("accel: %s: kind %v needs an output channel", name, cfg.Kind))
	}
	if cfg.WordLat < 0 {
		panic(fmt.Sprintf("accel: %s: negative word latency", name))
	}
	if cfg.Factor == 0 {
		cfg.Factor = 2
	}
	if len(cfg.Taps) == 0 {
		cfg.Taps = []uint32{1, 2, 3, 2, 1}
	}
	a := &Accel{cfg: cfg}
	a.init(k, name, NumRegs, RegStatus, RegJobsDone, cfg.IRQ, cfg.IRQLine, a.level)
	k.Thread(name, a.run)
	return a
}

// level serves the live FIFO-level registers (monitor reads).
func (a *Accel) level(idx int) (uint32, bool) {
	switch idx {
	case RegInLevel:
		if a.cfg.In == nil {
			return 0, true
		}
		return uint32(a.cfg.In.Size()), true
	case RegOutLevel:
		if a.cfg.Out == nil {
			return 0, true
		}
		return uint32(a.cfg.Out.Size()), true
	}
	return 0, false
}

// Checksum returns the Sink checksum.
func (a *Accel) Checksum() uint64 { return a.checksum }

// burstChunk is the staging-buffer size (words) the pure stream endpoints
// (Generator, Sink) move per bulk transfer. Chunking is timing-neutral:
// "Inc(lat); Write" per word equals one leading Inc(lat) plus a burst with
// lat between words, so the chunked job is date-identical to the scalar
// loop at any chunk size.
const burstChunk = 64

// run is the accelerator thread: the controller's job loop over this
// accelerator's stream kernel.
func (a *Accel) run(p *sim.Process) {
	if a.cfg.Kind == Generator || a.cfg.Kind == Sink {
		a.buf = make([]uint32, burstChunk)
	}
	a.serve(p, a.job)
}

// job processes n input words (or produces n words for a Generator).
func (a *Accel) job(p *sim.Process, n int) {
	switch a.cfg.Kind {
	case Generator:
		// Bulk path: stage a chunk of generated words, lead with one
		// Inc (the scalar loop's pre-word annotation), then burst with
		// WordLat between words — date-identical to the scalar loop.
		for done := 0; done < n; {
			m := len(a.buf)
			if n-done < m {
				m = n - done
			}
			for j := 0; j < m; j++ {
				a.buf[j] = workload.WordAt(a.cfg.Seed, a.produced)
				a.produced++
			}
			p.Inc(a.cfg.WordLat)
			fifo.WriteBurst(p, a.cfg.Out, a.buf[:m], a.cfg.WordLat)
			done += m
		}
	case Scale:
		for i := 0; i < n; i++ {
			w := a.cfg.In.Read()
			p.Inc(a.cfg.WordLat)
			a.cfg.Out.Write(w * a.cfg.Factor)
		}
	case FIR:
		win := make([]uint32, len(a.cfg.Taps))
		for i := 0; i < n; i++ {
			copy(win[1:], win)
			win[0] = a.cfg.In.Read()
			var acc uint32
			for j, t := range a.cfg.Taps {
				acc += t * win[j]
			}
			p.Inc(a.cfg.WordLat)
			a.cfg.Out.Write(acc)
		}
	case Decimate:
		for i := 0; i < n; i++ {
			w := a.cfg.In.Read()
			p.Inc(a.cfg.WordLat)
			if i%int(a.cfg.Factor) == 0 {
				a.cfg.Out.Write(w)
			}
		}
	case Sink:
		// Bulk path: burst a chunk in ("Read; Inc" per word equals a
		// burst with WordLat between words plus one trailing Inc), then
		// fold the checksum — same values in the same order.
		for done := 0; done < n; {
			m := len(a.buf)
			if n-done < m {
				m = n - done
			}
			fifo.ReadBurst(p, a.cfg.In, a.buf[:m], a.cfg.WordLat)
			p.Inc(a.cfg.WordLat)
			for _, w := range a.buf[:m] {
				a.checksum = workload.Checksum(a.checksum, w)
			}
			done += m
		}
	}
}
