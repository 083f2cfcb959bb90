package accel

import (
	"repro/internal/bus"
	"repro/internal/sim"
)

// controller is the control half every device of this package shares:
// the register file whose start bit queues a job, the device thread's
// wait-run-complete loop, and the dated completion record the status and
// jobs-done registers publish. A device embeds it and supplies only its
// datapath (the job body) and its own read-only registers.
type controller struct {
	k     *sim.Kernel
	name  string
	regs  *bus.RegisterFile
	start *sim.Event
	// status and jobsDone are the device's register indices; the start
	// bit is at RegCtrl and the job length at RegWords in every layout.
	status, jobsDone int
	// read, if non-nil, serves the device's other read-only registers.
	read    func(idx int) (uint32, bool)
	irq     *bus.IRQController
	irqLine int

	// started counts start commands; the device reads busy while fewer
	// jobs than that have completed by the kernel's date (see done).
	started  int
	jobDates []sim.Time
}

// init builds the register file and the start event. It runs once per
// device at elaboration, before the device registers its thread.
func (c *controller) init(k *sim.Kernel, name string, nregs, status, jobsDone int,
	irq *bus.IRQController, irqLine int, read func(idx int) (uint32, bool)) {
	*c = controller{
		k:        k,
		name:     name,
		regs:     bus.NewRegisterFile(nregs, sim.NS),
		start:    sim.NewEvent(k, name+".start"),
		status:   status,
		jobsDone: jobsDone,
		read:     read,
		irq:      irq,
		irqLine:  irqLine,
	}
	c.regs.OnWrite = func(p *sim.Process, idx int, v uint32) bool {
		if idx == RegCtrl && v == 1 {
			c.started++
			c.start.Notify()
			return false
		}
		return true
	}
	c.regs.OnRead = func(p *sim.Process, idx int) (uint32, bool) {
		switch idx {
		case c.status:
			if c.done() < c.started {
				return 1, true
			}
			return 0, true
		case c.jobsDone:
			return uint32(c.done()), true
		}
		if c.read != nil {
			return c.read(idx)
		}
		return 0, false
	}
}

// done counts the completions dated at or before the kernel's date — not
// the reader's — which are the ones the registers publish (package doc).
func (c *controller) done() int {
	now := c.k.Now()
	n := len(c.jobDates)
	for n > 0 && c.jobDates[n-1] > now {
		n--
	}
	return n
}

// Name returns the device name.
func (c *controller) Name() string { return c.name }

// Regs returns the register file to map onto a bus.
func (c *controller) Regs() *bus.RegisterFile { return c.regs }

// JobDates returns the device's local date at each job completion: the
// timing-accuracy witness compared across FIFO implementations.
func (c *controller) JobDates() []sim.Time { return c.jobDates }

// JobsDone returns the number of completed jobs.
func (c *controller) JobsDone() uint32 { return uint32(len(c.jobDates)) }

// serve is the device thread's loop: wait for a start command, run one
// job of the programmed length through the datapath, record its
// completion date, raise the IRQ line, repeat forever (the process parks
// when the simulation has no more work for it).
func (c *controller) serve(p *sim.Process, job func(p *sim.Process, words int)) {
	for {
		for len(c.jobDates) == c.started {
			// Synchronize before parking: a blocked device must not
			// hold a stale local date across an idle period (commands
			// arrive at global time). A start command may land while
			// we are inside Sync — its notification would be lost —
			// so re-check the condition after synchronizing, exactly
			// like the Smart FIFO's blocking loops.
			if !p.Synchronized() {
				p.Sync()
				continue
			}
			p.WaitEvent(c.start)
		}
		job(p, int(c.regs.Get(RegWords)))
		c.jobDates = append(c.jobDates, p.LocalTime())
		if c.irq != nil {
			c.irq.Raise(c.irqLine)
		}
	}
}
