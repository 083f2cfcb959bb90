package par_test

// Edge cases of the frontier-driven scheduler: frontier publication
// racing Interrupt, the credit-blocked write-frontier cap and the
// global-minimum fallback. Run with -race: these tests exist to expose
// cross-worker ordering bugs.

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/trace"
)

// buildChain assembles the three-stage, two-bridge chain used by the
// async tests on three fresh shards and returns the coordinator plus the
// sink's dated trace.
func buildChain(n int) (*par.Coordinator, *trace.Recorder) {
	rec := trace.NewRecorder()
	k1, k2, k3 := sim.NewKernel("s0"), sim.NewKernel("s1"), sim.NewKernel("s2")
	c := par.NewCoordinator()
	for _, k := range []*sim.Kernel{k1, k2, k3} {
		c.AddShard(k)
	}
	f1 := core.NewSharded[int](k1, k2, "c1", 8)
	f2 := core.NewSharded[int](k2, k3, "c2", 8)
	c.AddBridge(f1)
	c.AddBridge(f2)
	k1.Thread("src", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			p.Inc(prodRate(i))
			f1.Writer().Write(i)
		}
	})
	k2.Thread("mid", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			v := f1.Reader().Read()
			p.Inc(2 * sim.NS)
			f2.Writer().Write(v ^ 0x55)
		}
	})
	k3.Thread("dst", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			v := f2.Reader().Read()
			p.Inc(consRate(i))
			rec.Logf(p, "out %d", v)
		}
	})
	return c, rec
}

// chainRef runs the same chain on one kernel over SmartFIFOs.
func chainRef(n int) *trace.Recorder {
	rec := trace.NewRecorder()
	k := sim.NewKernel("mono")
	f1 := core.NewSmart[int](k, "c1", 8)
	f2 := core.NewSmart[int](k, "c2", 8)
	k.Thread("src", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			p.Inc(prodRate(i))
			f1.Write(i)
		}
	})
	k.Thread("mid", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			v := f1.Read()
			p.Inc(2 * sim.NS)
			f2.Write(v ^ 0x55)
		}
	})
	k.Thread("dst", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			v := f2.Read()
			p.Inc(consRate(i))
			rec.Logf(p, "out %d", v)
		}
	})
	k.Run(sim.RunForever)
	k.Shutdown()
	return rec
}

// TestAsyncInterruptRace interrupts the async run from another goroutine
// at arbitrary wall-clock moments — racing the workers' frontier
// publications and parks — then resumes, repeatedly, and requires the
// final trace to be byte-identical to the uninterrupted reference. Every
// interrupt must return Run with all workers joined (the leak check
// would catch a stuck worker).
func TestAsyncInterruptRace(t *testing.T) {
	defer leakcheck.Check(t)()
	const n = 1500
	ref := chainRef(n)
	for iter := 0; iter < 4; iter++ {
		c, rec := buildChain(n)
		stop := make(chan struct{})
		go func() {
			for {
				select {
				case <-stop:
					return
				default:
					c.Interrupt()
					time.Sleep(200 * time.Microsecond)
				}
			}
		}()
		// Resume until the model actually finishes: a return with the
		// latch set was an interrupt stop, not quiescence.
		interrupts := 0
		for {
			c.Run(sim.RunForever)
			if !c.Interrupted() {
				break
			}
			interrupts++
			c.ClearInterrupt()
		}
		close(stop)
		if d := trace.Diff(ref, rec); d != "" {
			t.Fatalf("iter %d: trace after %d interrupts differs from reference:\n%s", iter, interrupts, d)
		}
		c.Shutdown()
	}
}

// TestAsyncWriteFrontierCreditCap drives the two directional exchange
// halves by hand through a credit-blocked episode and checks the bounds
// they publish: a blocked writer's write frontier stays finite (the
// shard's clock must not pass it), credits published by the reader raise
// it, and termination lifts it to TimeMax.
func TestAsyncWriteFrontierCreditCap(t *testing.T) {
	defer leakcheck.Check(t)()
	kw, kr := sim.NewKernel("w"), sim.NewKernel("r")
	f := core.NewSharded[int](kw, kr, "ch", 2)
	kw.Thread("producer", func(p *sim.Process) {
		for i := 0; i < 3; i++ {
			p.Inc(10 * sim.NS)
			f.Writer().Write(i) // 3rd write blocks: the window holds 2
		}
	})
	var got []sim.Time
	kr.Thread("consumer", func(p *sim.Process) {
		for i := 0; i < 3; i++ {
			f.Reader().Read()
			got = append(got, p.LocalTime())
			p.Inc(7 * sim.NS)
		}
	})

	// Writer runs alone: fills the window at 10ns and 20ns, blocks on
	// the third write. Its write frontier must be finite — the cap the
	// scheduler enforces on the shard clock — and at least the last
	// committed write date.
	kw.Run(sim.RunForever)
	wf, _, _ := f.FlushWriterSide(false)
	if wf == sim.TimeMax {
		t.Fatalf("credit-blocked writer published an unbounded write frontier")
	}
	if wf < 20*sim.NS {
		t.Fatalf("write frontier %v below the last committed write date 20ns", wf)
	}

	// Reader side: importing the two delivered words must publish a
	// finite inbound frontier (the writer is blocked, not terminated).
	front, _, _ := f.FlushReaderSide()
	if front == sim.TimeMax {
		t.Fatalf("frontier unbounded while the writer is alive and blocked")
	}

	// Reader pops both words; its freed credits cross on the next
	// exchange pair and must RAISE the writer's frontier bound (the
	// blocked write resumes at or after the freeing date). Against a
	// writer-published full window the publication must grade as a
	// credit — the hard poke that wakes a credit-parked writer shard.
	kr.Run(sim.RunForever)
	if _, credit, _ := f.FlushReaderSide(); !credit {
		t.Fatalf("freed credits against a blocked window were not published as a credit")
	}
	wf2, _, _ := f.FlushWriterSide(false)
	if wf2 < wf {
		t.Fatalf("write frontier went backwards after credits: %v -> %v", wf, wf2)
	}

	// With credits imported the writer completes and terminates; a
	// terminated writer can never block again, so the bound lifts to
	// TimeMax and the reader drains unthrottled.
	kw.Run(sim.RunForever)
	if wf3, _, _ := f.FlushWriterSide(false); wf3 != sim.TimeMax {
		t.Fatalf("terminated writer's write frontier = %v, want TimeMax", wf3)
	}
	if front, _, _ := f.FlushReaderSide(); front != sim.TimeMax {
		t.Fatalf("terminated writer's frontier = %v, want TimeMax", front)
	}
	kr.Run(sim.RunForever)
	if len(got) != 3 {
		t.Fatalf("consumer saw %d/3 words", len(got))
	}
	kw.Shutdown()
	kr.Shutdown()
}

// TestAsyncGlobalMinFallback freezes every frontier — the source parks
// forever mid-stream, starving the whole chain — while the sink shard
// still holds standalone timed work. Only the rendezvous' global-minimum
// fallback can legalise that work; the run must finish it and report the
// parked processes rather than deadlock.
func TestAsyncGlobalMinFallback(t *testing.T) {
	defer leakcheck.Check(t)()
	k1, k2 := sim.NewKernel("a"), sim.NewKernel("b")
	f := core.NewSharded[int](k1, k2, "ch", 4)
	never := sim.NewEvent(k1, "never")
	k1.Thread("writer", func(p *sim.Process) {
		p.Inc(3 * sim.NS)
		f.Writer().Write(7)
		p.WaitEvent(never) // frontier freezes at a finite date
	})
	var got bool
	k2.Thread("reader", func(p *sim.Process) {
		got = f.Reader().Read() == 7
	})
	const ticks = 30
	ticked := 0
	k2.Thread("ticker", func(p *sim.Process) {
		for i := 0; i < ticks; i++ {
			p.Wait(5 * sim.NS)
			ticked++
		}
	})
	c := par.NewCoordinator()
	c.AddShard(k1)
	c.AddShard(k2)
	c.AddBridge(f)
	c.Run(sim.RunForever)
	defer c.Shutdown()
	if !got || ticked != ticks {
		t.Fatalf("got=%v ticked=%d/%d: fallback did not carry the run to quiescence", got, ticked, ticks)
	}
	if st := c.Stats(); st.Fallbacks == 0 {
		t.Errorf("no fallback recorded against frozen frontiers: %+v", st)
	}
	if b := c.Blocked(); len(b["a"]) != 1 || b["a"][0] != "writer" {
		t.Errorf("want the parked writer reported on shard a, got %v", b)
	}
}
