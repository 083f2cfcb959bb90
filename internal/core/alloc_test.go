package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// Allocation-regression tests for the Smart FIFO hot paths (§IV-B "the
// cost of timing accuracy"): a decoupled Write/Read stream — the pure Kahn
// case, nothing subscribed to NotEmpty/NotFull — must run at zero heap
// allocations per access in steady state. This pins the subscriber-aware
// notification elision and the embedded timed-queue entries.

func TestSmartFIFODecoupledZeroAlloc(t *testing.T) {
	k := sim.NewKernel("alloc")
	f := core.NewSmart[int](k, "f", 64)
	k.Thread("writer", func(p *sim.Process) {
		for i := 0; ; i++ {
			f.Write(i)
			p.Inc(sim.NS)
		}
	})
	k.Thread("reader", func(p *sim.Process) {
		for {
			f.Read()
			p.Inc(sim.NS)
		}
	})
	var end sim.Time
	step := func() { end += 2 * sim.US; k.Run(end) }
	step() // warm-up: grow queues and goroutine stacks
	if n := testing.AllocsPerRun(50, step); n != 0 {
		t.Errorf("decoupled Write/Read steady state: %v allocs per step, want 0", n)
	}
	k.Shutdown()
}

func TestSmartFIFOBurstZeroAlloc(t *testing.T) {
	// The bulk fast paths: chunked WriteBurst/ReadBurst streaming in
	// steady state must not allocate (payload moves with copy, dates are
	// annotated in place, event work is elided).
	k := sim.NewKernel("alloc")
	f := core.NewSmart[int](k, "f", 256)
	wbuf := make([]int, 64)
	rbuf := make([]int, 48)
	k.Thread("writer", func(p *sim.Process) {
		for {
			f.WriteBurst(wbuf, sim.NS)
			p.Inc(3 * sim.NS)
		}
	})
	k.Thread("reader", func(p *sim.Process) {
		for {
			f.ReadBurst(rbuf, sim.NS)
			p.Inc(2 * sim.NS)
			f.TryReadBurst(rbuf, sim.NS)
		}
	})
	var end sim.Time
	step := func() { end += 2 * sim.US; k.Run(end) }
	step()
	if n := testing.AllocsPerRun(50, step); n != 0 {
		t.Errorf("burst streaming steady state: %v allocs per step, want 0", n)
	}
	k.Shutdown()
}

func TestShardedBurstSteadyStateZeroAlloc(t *testing.T) {
	// The bridge endpoints' bulk paths: after warm-up the outbox and
	// credit batches reuse their backing arrays across Flush rounds.
	k := sim.NewKernel("alloc")
	f := core.NewSharded[int](k, k, "f", 64)
	wbuf := make([]int, 32)
	rbuf := make([]int, 32)
	k.Thread("writer", func(p *sim.Process) {
		w := f.Writer()
		for {
			w.WriteBurst(wbuf, sim.NS)
			p.Inc(3 * sim.NS)
		}
	})
	k.Thread("reader", func(p *sim.Process) {
		r := f.Reader()
		for {
			r.ReadBurst(rbuf, sim.NS)
			p.Inc(2 * sim.NS)
		}
	})
	var end sim.Time
	step := func() {
		end += 2 * sim.US
		// Drive run/flush cycles by hand: the degenerate same-kernel
		// bridge still moves data only at Flush.
		for i := 0; i < 40; i++ {
			k.Run(end)
			f.Flush()
		}
	}
	step()
	if n := testing.AllocsPerRun(20, step); n != 0 {
		t.Errorf("sharded burst steady state: %v allocs per step, want 0", n)
	}
	k.Shutdown()
}

func TestShardedScalarZeroAlloc(t *testing.T) {
	// The bridge endpoints' scalar paths: a word written by Write is
	// staged from a one-element slice that must stay on the stack, and
	// the outbox and credit batches reuse their arrays across Flush
	// rounds.
	k := sim.NewKernel("alloc")
	f := core.NewSharded[int](k, k, "f", 64)
	k.Thread("writer", func(p *sim.Process) {
		w := f.Writer()
		for i := 0; ; i++ {
			w.Write(i)
			p.Inc(sim.NS)
		}
	})
	k.Thread("reader", func(p *sim.Process) {
		r := f.Reader()
		for {
			r.Read()
			p.Inc(sim.NS)
		}
	})
	var end sim.Time
	step := func() {
		end += 2 * sim.US
		for i := 0; i < 40; i++ {
			k.Run(end)
			f.Flush()
		}
	}
	step()
	if n := testing.AllocsPerRun(20, step); n != 0 {
		t.Errorf("sharded scalar steady state: %v allocs per step, want 0", n)
	}
	k.Shutdown()
}

func TestSmartFIFODepthOneZeroAlloc(t *testing.T) {
	// The blocking-heavy ping-pong: every access parks on the internal
	// events, exercising Sync, WaitEvent and the delta queues.
	k := sim.NewKernel("alloc")
	f := core.NewSmart[int](k, "f", 1)
	k.Thread("writer", func(p *sim.Process) {
		for i := 0; ; i++ {
			f.Write(i)
			p.Inc(3 * sim.NS)
		}
	})
	k.Thread("reader", func(p *sim.Process) {
		for {
			f.Read()
			p.Inc(7 * sim.NS)
		}
	})
	var end sim.Time
	step := func() { end += 2 * sim.US; k.Run(end) }
	step()
	if n := testing.AllocsPerRun(50, step); n != 0 {
		t.Errorf("depth-1 ping-pong steady state: %v allocs per step, want 0", n)
	}
	k.Shutdown()
}
