package accel

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/fifo"
	"repro/internal/sim"
)

// DMA register indices.
const (
	// DMARegCtrl starts a transfer when written with 1.
	DMARegCtrl = RegCtrl
	// DMARegWords holds the transfer length in words.
	DMARegWords = RegWords
	// DMARegAddr holds the memory word address.
	DMARegAddr = 2
	// DMARegStatus reads 1 while a transfer is queued, running or not
	// yet due (package doc).
	DMARegStatus = 3
	// DMARegJobsDone counts the completed transfers that are due.
	DMARegJobsDone = 4
	// DMANumRegs is the register file size.
	DMANumRegs = 5
)

// Direction selects what a DMA engine does.
type Direction int

const (
	// MemToStream reads memory and produces a word stream.
	MemToStream Direction = iota
	// StreamToMem consumes a word stream and writes memory.
	StreamToMem
)

// String names the direction.
func (d Direction) String() string {
	if d == MemToStream {
		return "mem-to-stream"
	}
	return "stream-to-mem"
}

// DMAConfig parameterizes a DMA engine.
type DMAConfig struct {
	// Dir is the transfer direction.
	Dir Direction
	// Channel is the stream side.
	Channel fifo.Channel[uint32]
	// Bus is the memory side.
	Bus *bus.Bus
	// Quantum decouples the bus side (TLM-2.0 style).
	Quantum sim.Time
	// WordLat is the per-word streaming latency.
	WordLat sim.Time
	// ChunkWords is the burst length per bus transaction.
	ChunkWords int
	// IRQ, if non-nil, receives a Raise(IRQLine) at each transfer
	// completion.
	IRQ *bus.IRQController
	// IRQLine is the interrupt line to raise.
	IRQLine int
}

// DMA is a bus-mastering stream engine: the piece that connects the
// memory-mapped half of the SoC (decoupled with a quantum keeper, §II-A)
// to the FIFO-based half (decoupled with Smart FIFOs, §III).
type DMA struct {
	controller
	cfg DMAConfig
}

// NewDMA creates a DMA engine and registers its thread process.
func NewDMA(k *sim.Kernel, name string, cfg DMAConfig) *DMA {
	if cfg.Channel == nil || cfg.Bus == nil {
		panic(fmt.Sprintf("accel: dma %s: needs both a channel and a bus", name))
	}
	if cfg.ChunkWords <= 0 {
		cfg.ChunkWords = 16
	}
	d := &DMA{cfg: cfg}
	d.init(k, name, DMANumRegs, DMARegStatus, DMARegJobsDone, cfg.IRQ, cfg.IRQLine, nil)
	k.Thread(name, d.run)
	return d
}

// run is the engine thread: the controller's job loop over bus-side
// chunk transfers.
func (d *DMA) run(p *sim.Process) {
	in := bus.NewInitiator(p, d.cfg.Bus, d.cfg.Quantum)
	buf := make([]uint32, d.cfg.ChunkWords)
	d.serve(p, func(p *sim.Process, words int) {
		addr := d.regs.Get(DMARegAddr)
		for done := 0; done < words; {
			n := d.cfg.ChunkWords
			if words-done < n {
				n = words - done
			}
			chunk := buf[:n]
			// Stream-side chunks move through the bulk burst APIs;
			// the Inc placement makes each chunk date-identical to
			// the scalar per-word loop (see accel.Accel.job).
			switch d.cfg.Dir {
			case MemToStream:
				in.ReadBurst(addr+uint32(done), chunk)
				p.Inc(d.cfg.WordLat)
				fifo.WriteBurst(p, d.cfg.Channel, chunk, d.cfg.WordLat)
			case StreamToMem:
				fifo.ReadBurst(p, d.cfg.Channel, chunk, d.cfg.WordLat)
				p.Inc(d.cfg.WordLat)
				in.WriteBurst(addr+uint32(done), chunk)
			}
			done += n
		}
	})
}
