// Firmware: the case-study control core as *real software* — a small
// RISC-like ISS executes assembled firmware that programs an accelerator
// pipeline through memory-mapped registers, sleeps on the interrupt
// controller (WFI), reads FIFO fill levels through the monitor interface
// and halts. The whole model runs twice (sync-on-access FIFOs vs Smart
// FIFOs): same firmware trace, same dates, fewer context switches.
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/accel"
	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fifo"
	"repro/internal/sim"
)

const firmware = `
	; register map:
	;   0x200 generator, 0x210 scale, 0x220 sink, 0x400 irq ctrl
	ldi  r1, 0x200
	ldi  r2, 0x210
	ldi  r3, 0x220
	ldi  r7, 0x400
	ldi  r4, 1
	st   r4, 1(r7)      ; irq: enable line 0 (sink done)
	ldi  r5, 256        ; words per job
	ldi  r8, 4          ; jobs to run
	ldi  r9, 0          ; max observed sink-input level
next_job:
	st   r5, 1(r3)      ; sink.words
	st   r4, 0(r3)      ; sink.start
	st   r5, 1(r2)      ; scale.words
	st   r4, 0(r2)      ; scale.start
	st   r5, 1(r1)      ; gen.words
	st   r4, 0(r1)      ; gen.start
sleep:
	ld   r10, 4(r3)     ; sink.RegInLevel: monitor access
	blt  r10, r9, nomax
	mov  r9, r10
nomax:
	wfi
	ld   r6, 0(r7)      ; irq.pending
	beq  r6, r0, sleep
	st   r6, 0(r7)      ; ack
	addi r8, r8, -1
	bne  r8, r0, next_job
	ld   r11, 3(r3)     ; sink.RegJobsDone
	halt
`

// simulate builds the pipeline with sync-on-access (smart false) or
// Smart FIFOs and runs the firmware to its halt.
func simulate(smart bool) (wall time.Duration, switches uint64, c *cpu.CPU, jobDates []sim.Time, maxLevel uint32) {
	k := sim.NewKernel("firmware")
	b := bus.NewBus(k, "bus", sim.NS)
	irq := bus.NewIRQController(k, "irq")

	newCh := func(name string) fifo.Channel[uint32] {
		if smart {
			return core.NewSmart[uint32](k, name, 8)
		}
		return fifo.NewSync[uint32](k, name, 8)
	}
	c1, c2 := newCh("c1"), newCh("c2")
	gen := accel.New(k, "gen", accel.Config{Kind: accel.Generator, Out: c1, WordLat: 3 * sim.NS, Seed: 5})
	sc := accel.New(k, "scale", accel.Config{Kind: accel.Scale, In: c1, Out: c2, WordLat: 2 * sim.NS, Factor: 3})
	sink := accel.New(k, "sink", accel.Config{
		Kind: accel.Sink, In: c2, WordLat: 4 * sim.NS, IRQ: irq, IRQLine: 0,
	})
	b.Map("gen", 0x200, accel.NumRegs, gen.Regs())
	b.Map("scale", 0x210, accel.NumRegs, sc.Regs())
	b.Map("sink", 0x220, accel.NumRegs, sink.Regs())
	b.Map("irq", 0x400, bus.IRQNumRegs, irq)

	c = cpu.New(k, "cpu0", cpu.Config{
		Program: cpu.MustAssemble(firmware),
		Bus:     b,
		CPI:     2 * sim.NS,
		Quantum: 200 * sim.NS,
		IRQ:     irq,
	})

	start := time.Now()
	k.Run(sim.RunForever)
	wall = time.Since(start)
	k.Shutdown()
	return wall, k.Stats().ContextSwitches, c, sink.JobDates(), c.Reg(9)
}

func main() { run(os.Stdout) }

// run runs the firmware on both builds and prints the comparison.
func run(w io.Writer) {
	fmt.Fprintln(w, "ISS-controlled pipeline: generator → scale → sink, 4 jobs x 256 words")
	fmt.Fprintln(w)
	syncWall, syncSw, syncCPU, syncDates, syncLvl := simulate(false)
	smartWall, smartSw, smartCPU, smartDates, smartLvl := simulate(true)

	fmt.Fprintf(w, "sync FIFOs : wall %10v  ctx switches %7d  instructions %6d\n", syncWall, syncSw, syncCPU.Retired())
	fmt.Fprintf(w, "smart FIFOs: wall %10v  ctx switches %7d  instructions %6d\n", smartWall, smartSw, smartCPU.Retired())
	fmt.Fprintf(w, "\nfirmware saw jobs done: sync r11=%d, smart r11=%d\n", syncCPU.Reg(11), smartCPU.Reg(11))
	fmt.Fprintf(w, "max sink-input level observed by firmware: sync %d, smart %d\n", syncLvl, smartLvl)
	fmt.Fprintf(w, "sink job completion dates identical: %v\n", fmt.Sprint(syncDates) == fmt.Sprint(smartDates))
	fmt.Fprintf(w, "  dates: %v\n", smartDates)
}
