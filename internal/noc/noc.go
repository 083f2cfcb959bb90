// Package noc models the stream-based network-on-chip of the case-study
// SoC (paper §IV-C): a 2-D mesh whose routers are non-decoupled
// SC_METHOD-style processes over regular FIFOs ("for the NoC itself, where
// a lot of arbitration has to be done, we decided to model the routers
// using only non-decoupled SC METHODs; thus NoC routers continue to use
// regular FIFOs"), plus packetizing network interfaces bridging the
// temporally decoupled accelerators (over Smart FIFOs) to the mesh.
package noc

import (
	"fmt"

	"repro/internal/fifo"
	"repro/internal/sim"
)

// Flit is one mesh transfer unit: a word plus routing/framing metadata.
type Flit struct {
	// Dst is the destination router index (y*width + x).
	Dst int
	// Src is the source router index.
	Src int
	// Word is the payload.
	Word uint32
	// Head and Tail frame packets.
	Head, Tail bool
}

// Port indexes a router port.
type port int

const (
	north port = iota
	south
	east
	west
	local
	nPorts
)

// Stats counts mesh activity.
type Stats struct {
	// FlitsForwarded counts router forwarding operations (one per hop).
	FlitsForwarded uint64
	// PacketsInjected and PacketsDelivered count NI-level packets.
	PacketsInjected  uint64
	PacketsDelivered uint64
}

// Config parameterizes a mesh.
type Config struct {
	// Width and Height give the mesh dimensions in routers.
	Width, Height int
	// Cycle is the router cycle time: one flit per port per cycle.
	Cycle sim.Time
	// FIFODepth is the depth of the router input/output FIFOs.
	FIFODepth int
}

// Mesh is a 2-D XY-routed mesh of method-process routers.
type Mesh struct {
	k    *sim.Kernel
	name string
	cfg  Config

	routers []*router
	stats   Stats
}

// router is one mesh node. Inputs are regular FIFOs; outputs are the
// neighbours' input FIFOs (or the local output FIFO toward the NI).
type router struct {
	m    *Mesh
	idx  int
	x, y int

	in  [nPorts]*fifo.FIFO[Flit] // in[local] is the NI injection queue
	out *fifo.FIFO[Flit]         // local delivery queue toward the NI
	// outs is the destination FIFO per output port: the neighbour's
	// facing input (nil at the mesh edge), and out for local.
	outs [nPorts]*fifo.FIFO[Flit]

	next      port // round-robin pointer
	tickArmed bool // a self-scheduled cycle tick is pending
	proc      *sim.Process

	// Each router can host at most one ingress-side NI (owning in[local])
	// and one egress-side NI (owning out).
	ingressNI, egressNI bool
}

// NewMesh builds the mesh and its router processes.
func NewMesh(k *sim.Kernel, name string, cfg Config) *Mesh {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		panic(fmt.Sprintf("noc: %s: bad dimensions %dx%d", name, cfg.Width, cfg.Height))
	}
	if cfg.FIFODepth <= 0 {
		cfg.FIFODepth = 4
	}
	if cfg.Cycle <= 0 {
		cfg.Cycle = sim.NS
	}
	m := &Mesh{k: k, name: name, cfg: cfg}
	for y := 0; y < cfg.Height; y++ {
		for x := 0; x < cfg.Width; x++ {
			idx := y*cfg.Width + x
			r := &router{m: m, idx: idx, x: x, y: y}
			for pt := port(0); pt < nPorts; pt++ {
				r.in[pt] = fifo.New[Flit](k, fmt.Sprintf("%s.r%d.in%d", name, idx, pt), cfg.FIFODepth)
			}
			r.out = fifo.New[Flit](k, fmt.Sprintf("%s.r%d.out", name, idx), cfg.FIFODepth)
			m.routers = append(m.routers, r)
		}
	}
	// Wire the output ports and create the router processes after the
	// full topology exists, since both reference neighbour FIFOs.
	w := cfg.Width
	for _, r := range m.routers {
		r := r
		if r.y > 0 {
			r.outs[north] = m.routers[r.idx-w].in[south]
		}
		if r.y < cfg.Height-1 {
			r.outs[south] = m.routers[r.idx+w].in[north]
		}
		if r.x < w-1 {
			r.outs[east] = m.routers[r.idx+1].in[west]
		}
		if r.x > 0 {
			r.outs[west] = m.routers[r.idx-1].in[east]
		}
		r.outs[local] = r.out
		events := make([]*sim.Event, 0, 2*nPorts)
		for pt := port(0); pt < nPorts; pt++ {
			events = append(events, r.in[pt].NotEmpty())
		}
		// Output back-pressure release: neighbours' input NotFull and
		// the local output NotFull.
		for _, out := range r.outs {
			if out != nil {
				events = append(events, out.NotFull())
			}
		}
		r.proc = k.MethodNoInit(fmt.Sprintf("%s.router%d", name, r.idx), r.step, events...)
	}
	return m
}

// Name returns the mesh name.
func (m *Mesh) Name() string { return m.name }

// Stats returns a copy of the activity counters.
func (m *Mesh) Stats() Stats { return m.stats }

// RouterIndex converts coordinates to a router index.
func (m *Mesh) RouterIndex(x, y int) int {
	if x < 0 || x >= m.cfg.Width || y < 0 || y >= m.cfg.Height {
		panic(fmt.Sprintf("noc: %s: coordinates (%d,%d) outside %dx%d", m.name, x, y, m.cfg.Width, m.cfg.Height))
	}
	return y*m.cfg.Width + x
}

// injectionQueue returns the NI-facing input FIFO of router idx.
func (m *Mesh) injectionQueue(idx int) *fifo.FIFO[Flit] { return m.routers[idx].in[local] }

// deliveryQueue returns the NI-facing output FIFO of router idx.
func (m *Mesh) deliveryQueue(idx int) *fifo.FIFO[Flit] { return m.routers[idx].out }

// route gives the output port for a flit at this router under XY routing
// (correct X first, then Y, then deliver locally) and the FIFO behind it,
// nil if the port leaves the mesh.
func (r *router) route(f Flit) (port, *fifo.FIFO[Flit]) {
	w := r.m.cfg.Width
	dx, dy := f.Dst%w, f.Dst/w
	pt := local
	switch {
	case dx > r.x:
		pt = east
	case dx < r.x:
		pt = west
	case dy > r.y:
		pt = south
	case dy < r.y:
		pt = north
	}
	return pt, r.outs[pt]
}

// step is the router method body. The router works at cycle boundaries: an
// activation from its static sensitivity (a flit arrived / back-pressure
// released) only arms a tick one cycle later; the tick activation does the
// forwarding. That gives each hop a one-cycle latency and one flit per
// output per cycle, and while the tick is armed the dynamic trigger
// suppresses the statics, so the router runs at most once per cycle.
func (r *router) step(p *sim.Process) {
	progressed := false
	if r.tickArmed {
		r.tickArmed = false
		progressed = r.forward() > 0
		r.next = (r.next + 1) % nPorts
	}
	// Re-arm only when another cycle can plausibly make progress: after
	// a productive tick, or when a flit is waiting for a non-full
	// output. A flit blocked on a full output does NOT re-arm — the
	// output queue's NotFull is in the static sensitivity and will wake
	// the router when space appears. Without this distinction a
	// genuinely deadlocked mesh would self-retrigger every cycle
	// forever and the simulation would never quiesce.
	if !r.tickArmed && (progressed || r.forwardableWork()) {
		r.tickArmed = true
		p.NextTrigger(r.m.cfg.Cycle)
	}
}

// forwardableWork reports whether some input flit currently has a
// non-full output queue.
func (r *router) forwardableWork() bool {
	for pt := port(0); pt < nPorts; pt++ {
		f, ok := r.in[pt].Peek()
		if !ok {
			continue
		}
		if _, out := r.route(f); out != nil && !out.IsFull() {
			return true
		}
	}
	return false
}

// forward moves one cycle's worth of flits: each input port may forward
// one flit, with at most one flit per output (peek first, pop only on
// success, so blocked flits stay in place). It returns the number of flits
// forwarded.
func (r *router) forward() int {
	var claimed [nPorts]bool // output ports used this cycle (local = r.out)
	n := 0
	for i := 0; i < int(nPorts); i++ {
		pt := port((int(r.next) + i) % int(nPorts))
		f, ok := r.in[pt].Peek()
		if !ok {
			continue
		}
		outPt, out := r.route(f)
		if out == nil {
			panic(fmt.Sprintf("noc: router %d: XY routing escaped the mesh", r.idx))
		}
		if claimed[outPt] || !out.TryWrite(f) {
			// Output contended or full this cycle; the flit stays
			// at the head of its input.
			continue
		}
		r.in[pt].TryRead() // commit the pop
		claimed[outPt] = true
		r.m.stats.FlitsForwarded++
		n++
	}
	return n
}
