package par_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/par"
	"repro/internal/sim"
)

// wedged builds a single-kernel delta-cycle livelock pinned at date 0.
func wedged() *sim.Kernel {
	k := sim.NewKernel("wedge")
	ping := sim.NewEvent(k, "ping")
	pong := sim.NewEvent(k, "pong")
	k.Thread("a", func(p *sim.Process) {
		for {
			ping.NotifyDelta()
			p.WaitEvent(pong)
		}
	})
	k.Thread("b", func(p *sim.Process) {
		for {
			p.WaitEvent(ping)
			pong.NotifyDelta()
		}
	})
	return k
}

// TestGuardDeadline: a context deadline interrupts a runaway single
// kernel and surfaces as a *StallError wrapping DeadlineExceeded, with
// the one-shard diagnostic showing the frozen date and climbing beat.
func TestGuardDeadline(t *testing.T) {
	defer leakcheck.Check(t)()
	k := wedged()
	defer k.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := par.RunKernel(ctx, k, sim.RunForever, 0)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline took %v to bite", elapsed)
	}
	var se *par.StallError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v (%T), want *StallError", err, err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("cause = %v, want DeadlineExceeded", se.Cause)
	}
	if len(se.Diag.Shards) != 1 {
		t.Fatalf("diagnostic has %d shards, want 1", len(se.Diag.Shards))
	}
	sd := se.Diag.Shards[0]
	if sd.Now != 0 || sd.Beat == 0 {
		t.Errorf("shard diag now=%v beat=%d, want frozen date with nonzero beat", sd.Now, sd.Beat)
	}
	if k.Interrupted() {
		t.Error("guard should unlatch the interrupt before returning")
	}
}

// TestGuardCancel: plain cancellation returns ctx.Err() without a
// diagnostic — the caller abandoned the run, nothing is "stalled".
func TestGuardCancel(t *testing.T) {
	defer leakcheck.Check(t)()
	k := wedged()
	defer k.Shutdown()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	err := par.RunKernel(ctx, k, sim.RunForever, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var se *par.StallError
	if errors.As(err, &se) {
		t.Error("plain cancellation should not carry a StallError")
	}
}

// TestGuardHealthyRun: guarding a run that completes normally returns
// nil even with an armed watchdog and deadline.
func TestGuardHealthyRun(t *testing.T) {
	defer leakcheck.Check(t)()
	k := sim.NewKernel("healthy")
	k.Thread("p", func(p *sim.Process) {
		for i := 0; i < 50; i++ {
			p.Wait(sim.NS)
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := par.RunKernel(ctx, k, sim.RunForever, 5*time.Second); err != nil {
		t.Fatalf("healthy guarded run: %v", err)
	}
	if k.Now() != 50*sim.NS {
		t.Errorf("now = %v, want 50ns", k.Now())
	}
}

// TestStallDiagnosticStringTimeMax: a bridge whose writer has
// terminated publishes WriteFrontier = TimeMax; the rendered dump must
// name the sentinel explicitly and mark the terminated writer, so the
// write side of every bridge is unambiguous.
func TestStallDiagnosticStringTimeMax(t *testing.T) {
	d := par.StallDiagnostic{
		GlobalNow: 100,
		Shards:    []par.ShardDiag{{Name: "s0", Now: 100, Horizon: sim.TimeMax}},
		Bridges: []par.BridgeDiag{
			{Name: "b0", Writer: "s0", Reader: "s1", Frontier: 150, WriteFrontier: sim.TimeMax},
			{Name: "b1", Writer: "s1", Reader: "s0", Frontier: 150, WriteFrontier: 200},
		},
	}
	out := d.String()
	if !strings.Contains(out, "write_frontier=TimeMax (writer terminated)") {
		t.Errorf("terminated-writer bridge not marked explicitly:\n%s", out)
	}
	if !strings.Contains(out, "write_frontier=200") || strings.Contains(out, "200 (writer terminated)") {
		t.Errorf("live-writer bridge misrendered:\n%s", out)
	}
	if !strings.Contains(out, "horizon=TimeMax") {
		t.Errorf("unbounded horizon should render as TimeMax:\n%s", out)
	}
	if strings.Contains(out, "=max") {
		t.Errorf("ambiguous 'max' fold still present:\n%s", out)
	}
}

// TestGoexitInShardComesBack: a thread body that ends its goroutine
// (runtime.Goexit, which is what t.FailNow does) takes the shard's
// worker with it, beyond recover's reach. Both schedulers must hand the
// guarded caller an error naming the process instead of waiting forever
// for the vanished worker.
func TestGoexitInShardComesBack(t *testing.T) {
	for _, barrier := range []bool{false, true} {
		t.Run(map[bool]string{false: "async", true: "barrier"}[barrier], func(t *testing.T) {
			defer leakcheck.Check(t)()
			// Two source shards feeding a sink: both sources have work
			// at date zero, so the barrier scheduler runs them on
			// workers too rather than inline.
			ka, kb, kc := sim.NewKernel("a"), sim.NewKernel("b"), sim.NewKernel("c")
			c := par.NewCoordinator()
			for _, k := range []*sim.Kernel{ka, kb, kc} {
				c.AddShard(k)
			}
			defer c.Shutdown()
			fa := core.NewSharded[int](ka, kc, "fa", 4)
			fb := core.NewSharded[int](kb, kc, "fb", 4)
			c.AddBridge(fa)
			c.AddBridge(fb)
			c.SetBarrier(barrier)
			ka.Thread("quitter", func(p *sim.Process) {
				fa.Writer().Write(1)
				runtime.Goexit()
			})
			kb.Thread("src", func(p *sim.Process) {
				for i := 0; i < 100; i++ {
					p.Inc(sim.NS)
					fb.Writer().Write(i)
				}
			})
			kc.Thread("sink", func(p *sim.Process) {
				fa.Reader().Read()
				for i := 0; i < 100; i++ {
					fb.Reader().Read()
				}
			})
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			defer func() {
				err, _ := recover().(error)
				if err == nil || !strings.Contains(err.Error(), `process "quitter" called runtime.Goexit`) {
					t.Errorf("recovered %v, want an error naming the process", err)
				}
			}()
			err := c.RunGuarded(ctx, sim.RunForever, 0)
			t.Errorf("RunGuarded returned %v, want the shard failure re-raised", err)
		})
	}
}
