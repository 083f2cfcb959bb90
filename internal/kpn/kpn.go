// Package kpn builds Kahn process networks over the simulation kernel: a
// structured, deterministic dataflow layer in the spirit of the KPN model
// of computation the paper cites ([8] HetSC, [9] Kahn 1974).
//
// A Network groups actors (thread processes) and channels (bounded FIFOs),
// declared onto an internal/netlist graph and elaborated when Run builds
// it. Kahn semantics — blocking reads, blocking writes, no peeking at
// channel state from actors — make the produced data and its dates
// independent of scheduling, which is exactly the property the Smart FIFO
// needs to stay exact under temporal decoupling, and the property that
// lets a bound network shard across kernels without changing its trace.
//
// Every network builds in one of two modes:
//
//   - Decoupled: Smart FIFO channels, Delay == Inc (fast);
//   - reference: regular FIFO channels, Delay == Wait (the ground truth).
//
// The two runs of the same builder must produce date-identical traces
// (paper §IV-A); Verify automates that check.
//
// A decoupled network whose channels are bound (Chan.Bind names the
// writing and reading actors) may additionally set Shards/Partitioner:
// Run then elaborates the graph across that many kernels, with
// netlist-inserted Smart-FIFO bridges at the cut edges — same dated
// trace, parallel execution.
package kpn

import (
	"context"
	"fmt"

	"repro/internal/fifo"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Network is a KPN under construction or execution.
type Network struct {
	// K is the first kernel of the build (the only one for unsharded
	// networks), populated by Run. Use Stats for shard-summed counters.
	K *sim.Kernel
	// Decoupled selects Smart FIFOs + Inc (true) or regular FIFOs +
	// Wait (false).
	Decoupled bool
	// Shards partitions the network across that many kernels (requires
	// Decoupled and every channel Bind-ed). 0 or 1 builds one kernel.
	Shards int
	// Partitioner names the netlist partitioner for sharded builds
	// ("single", "roundrobin" — the default — or "mincut"). "profiled"
	// needs a second, freshly declared copy of the network to measure,
	// which a hand-built Network cannot produce of itself: profiled kpn
	// chains go through the "kpn" scenario model, which declares its
	// chain through netlist.Elaborate.
	Partitioner string

	name  string
	rec   *trace.Recorder
	g     *netlist.Graph
	built *netlist.Build
}

// New creates an empty network.
func New(name string, decoupled bool) *Network {
	return &Network{
		Decoupled: decoupled,
		name:      name,
		rec:       trace.NewRecorder(),
		g:         netlist.New(name),
	}
}

// Name returns the network name.
func (n *Network) Name() string { return n.name }

// Trace returns the dated trace the actors logged.
func (n *Network) Trace() *trace.Recorder { return n.rec }

// Actor is the execution context handed to an actor body.
type Actor struct {
	// P is the underlying process.
	P *sim.Process

	n *Network
}

// Actor registers an actor. The body runs as a thread process; it should
// communicate only through channels and annotate computation with Delay.
// The returned module handle is what Chan.Bind takes.
func (n *Network) Actor(name string, body func(a *Actor)) *netlist.Module {
	return n.g.Thread(name, func(p *sim.Process) {
		body(&Actor{P: p, n: n})
	})
}

// Delay annotates d of computation: a local-clock increment when
// decoupled, a context-switching wait otherwise.
func (a *Actor) Delay(d sim.Time) {
	if a.n.Decoupled {
		a.P.Inc(d)
	} else {
		a.P.Wait(d)
	}
}

// Logf records a dated trace line attributed to the actor.
func (a *Actor) Logf(format string, args ...any) {
	a.n.rec.Logf(a.P, format, args...)
}

// Chan is a typed KPN channel.
type Chan[T any] struct {
	n  *Network
	nc *netlist.Chan[T]
}

// Channel creates a bounded channel in the network's mode. (A package
// function because Go methods cannot introduce type parameters.)
func Channel[T any](n *Network, name string, depth int) *Chan[T] {
	return &Chan[T]{n: n, nc: netlist.AddChan[T](n.g, name, depth)}
}

// WithBurst records the expected words-per-bulk-transfer hint on the
// underlying netlist channel (feeds the min-cut traffic weight).
func (c *Chan[T]) WithBurst(words int) *Chan[T] {
	c.nc.WithBurst(words)
	return c
}

// Bind declares the channel's writing and reading actors (the handles
// Actor returned). Binding is optional for single-kernel networks and
// required for sharded ones: it tells the netlist where the cut edges
// are.
func (c *Chan[T]) Bind(writer, reader *netlist.Module) *Chan[T] {
	c.nc.Output(writer)
	c.nc.Input(reader)
	return c
}

// Read pops the next token, blocking while the channel is empty.
func (c *Chan[T]) Read() T {
	_, r := c.nc.Ends()
	return r.Read()
}

// Write pushes a token, blocking while the channel is full.
func (c *Chan[T]) Write(v T) {
	w, _ := c.nc.Ends()
	w.Write(v)
}

// WriteBurst pushes tokens in order with per of computation annotated
// between consecutive tokens (the burst contract of internal/core): the
// Smart FIFO's bulk fast path when decoupled, the equivalent scalar
// Write/Delay loop in reference mode — so a dual-mode run of a bursting
// network still produces date-identical traces.
func (c *Chan[T]) WriteBurst(a *Actor, vals []T, per sim.Time) {
	w, _ := c.nc.Ends()
	if c.n.Decoupled {
		fifo.WriteBurst(a.P, fifo.Writer[T](w), vals, per)
		return
	}
	for i, v := range vals {
		if i > 0 {
			a.Delay(per)
		}
		w.Write(v)
	}
}

// ReadBurst pops tokens in order with per annotated between consecutive
// tokens, symmetric to WriteBurst.
func (c *Chan[T]) ReadBurst(a *Actor, dst []T, per sim.Time) {
	_, r := c.nc.Ends()
	if c.n.Decoupled {
		fifo.ReadBurst(a.P, fifo.Reader[T](r), dst, per)
		return
	}
	for i := range dst {
		if i > 0 {
			a.Delay(per)
		}
		dst[i] = r.Read()
	}
}

// Monitor exposes the non-Kahn observation interface (fill levels) for
// controllers and probes; actors must not use it for data flow. On a
// sharded build it observes the reader-side endpoint, so monitoring
// actors should be colocated with the reader.
func (c *Chan[T]) Monitor() fifo.Monitor {
	_, r := c.nc.Ends()
	return r
}

// Run builds the network (Smart or regular FIFOs by mode, one kernel or
// Shards kernels with auto-inserted bridges), executes it to quiescence
// and returns an error naming the blocked actors if the network
// deadlocked with tokens still owed.
func (n *Network) Run() error {
	return n.RunCtx(context.Background())
}

// RunCtx is Run under the par supervisor: the run is interrupted when
// ctx ends or the stall watchdog it carries (par.WithStallWindow)
// fires, returning the guard's error. Call Shutdown afterwards either
// way, as with Run.
func (n *Network) RunCtx(ctx context.Context) error {
	if n.built == nil {
		impl := netlist.Plain
		if n.Decoupled {
			impl = netlist.Smart
		}
		shards := n.Shards
		if shards > 1 && !n.Decoupled {
			return fmt.Errorf("kpn: %s: the reference build cannot be sharded (only Smart FIFOs carry the bridge dates)", n.name)
		}
		part, err := netlist.PartitionerByName(n.Partitioner)
		if err != nil {
			return fmt.Errorf("kpn: %s: %w", n.name, err)
		}
		b, err := n.g.Build(netlist.Options{Shards: shards, Partitioner: part, Impl: impl})
		if err != nil {
			return fmt.Errorf("kpn: %s: %w", n.name, err)
		}
		n.built = b
		n.K = b.Kernels[0]
	}
	if err := n.built.RunGuarded(ctx, sim.RunForever); err != nil {
		return err
	}
	if blocked := n.built.Blocked(); len(blocked) != 0 {
		if bl, one := blocked[n.K.Name()]; one && len(blocked) == 1 {
			return fmt.Errorf("kpn: %s: deadlock, blocked actors: %v", n.name, bl)
		}
		return fmt.Errorf("kpn: %s: deadlock, blocked actors: %v", n.name, blocked)
	}
	return nil
}

// Stats sums the kernel activity counters over the build's shards.
func (n *Network) Stats() sim.Stats {
	if n.built == nil {
		return sim.Stats{}
	}
	return n.built.Stats()
}

// Build exposes the elaborated netlist build (nil before Run), for
// callers that report partitioning outcomes (crossings, advances).
func (n *Network) Build() *netlist.Build { return n.built }

// Shutdown force-terminates remaining actor goroutines (after a deadlock,
// or when discarding the network).
func (n *Network) Shutdown() {
	if n.built != nil {
		n.built.Shutdown()
	}
}

// Builder constructs the same network into any mode.
type Builder func(n *Network)

// Verify runs the builder in reference and decoupled modes and returns a
// non-empty description if the dated traces differ after reordering — the
// §IV-A oracle as a one-call library function. Deadlocks must be identical
// in both modes too.
func Verify(name string, build Builder) string {
	run := func(decoupled bool) (*trace.Recorder, error) {
		n := New(name, decoupled)
		build(n)
		err := n.Run()
		n.Shutdown()
		return n.Trace(), err
	}
	refTrace, refErr := run(false)
	smartTrace, smartErr := run(true)
	if (refErr == nil) != (smartErr == nil) {
		return fmt.Sprintf("deadlock mismatch: reference %v, decoupled %v", refErr, smartErr)
	}
	return trace.Diff(refTrace, smartTrace)
}
