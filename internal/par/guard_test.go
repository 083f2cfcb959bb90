package par_test

import (
	"context"
	"errors"
	"fmt"
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
// worker with it, beyond recover's reach; the guarded caller must get an
// error naming the process instead of waiting forever for the vanished
// worker. A one-shard coordinator steps its kernel on a worker too, so
// its failures — a Goexit, or a model panic whose text must arrive
// exactly as a plain Kernel.Run would raise it — cross a goroutine the
// same way.
func TestGoexitInShardComesBack(t *testing.T) {
	// threeShards feeds a sink from two source shards; the quitter is on
	// shard 0.
	threeShards := func(c *par.Coordinator, quit func()) {
		ka, kb, kc := sim.NewKernel("a"), sim.NewKernel("b"), sim.NewKernel("c")
		for _, k := range []*sim.Kernel{ka, kb, kc} {
			c.AddShard(k)
		}
		fa := core.NewSharded[int](ka, kc, "fa", 4)
		fb := core.NewSharded[int](kb, kc, "fb", 4)
		c.AddBridge(fa)
		c.AddBridge(fb)
		ka.Thread("quitter", func(p *sim.Process) {
			fa.Writer().Write(1)
			quit()
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
	}
	// oneShard runs the quitter and its reader on one kernel over a
	// self-bridge.
	oneShard := func(c *par.Coordinator, quit func()) {
		k := sim.NewKernel("solo")
		c.AddShard(k)
		f := core.NewSharded[int](k, k, "f", 4)
		c.AddBridge(f)
		k.Thread("quitter", func(p *sim.Process) {
			p.Inc(sim.NS)
			f.Writer().Write(1)
			quit()
		})
		k.Thread("sink", func(p *sim.Process) {
			for {
				f.Reader().Read()
			}
		})
	}
	for _, tc := range []struct {
		name  string
		build func(*par.Coordinator, func())
		quit  func()
		want  string // the re-raised value's exact text
	}{
		{"async", threeShards, runtime.Goexit, `par: shard 0: process "quitter" called runtime.Goexit`},
		{"one_shard", oneShard, runtime.Goexit, `par: shard 0: process "quitter" called runtime.Goexit`},
		{"one_shard_panic", oneShard, func() { panic("boom") }, `sim: process "quitter" panicked: boom`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer leakcheck.Check(t)()
			c := par.NewCoordinator()
			defer c.Shutdown()
			tc.build(c, tc.quit)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			defer func() {
				if r := recover(); fmt.Sprint(r) != tc.want {
					t.Errorf("recovered %T %v, want %q", r, r, tc.want)
				}
			}()
			err := c.RunGuarded(ctx, sim.RunForever, 0)
			t.Errorf("RunGuarded returned %v, want the shard failure re-raised", err)
		})
	}
}
