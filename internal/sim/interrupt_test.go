package sim

import (
	"testing"
	"time"
)

// wedgedKernel builds a delta-cycle livelock: two threads ping-ponging
// zero-delay notifications at date 0, so Run never returns on its own.
func wedgedKernel() *Kernel {
	k := NewKernel("wedge")
	ping := NewEvent(k, "ping")
	pong := NewEvent(k, "pong")
	k.Thread("a", func(p *Process) {
		for {
			ping.NotifyDelta()
			p.WaitEvent(pong)
		}
	})
	k.Thread("b", func(p *Process) {
		for {
			p.WaitEvent(ping)
			pong.NotifyDelta()
		}
	})
	return k
}

// TestInterruptStopsLivelock: an interrupt from another goroutine makes
// a livelocked Run return with consistent state, and the interrupt
// stays latched until cleared.
func TestInterruptStopsLivelock(t *testing.T) {
	k := wedgedKernel()
	defer k.Shutdown()
	go func() {
		// Let the kernel spin long enough to cross several poll points.
		for k.Beat() < 3 {
			time.Sleep(time.Millisecond)
		}
		k.Interrupt()
	}()
	done := make(chan struct{})
	go func() { k.Run(RunForever); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("interrupt did not stop the livelocked run")
	}
	if !k.Interrupted() {
		t.Error("interrupt flag should stay latched after return")
	}
	if k.Now() != 0 {
		t.Errorf("livelock advanced time to %v", k.Now())
	}
	// Latched: another Step returns immediately without dispatching.
	beat := k.Beat()
	k.Step(RunForever)
	if got := k.Beat(); got > beat+1 {
		t.Errorf("latched interrupt still dispatched (beat %d -> %d)", beat, got)
	}
}

// TestClearInterruptResumes: interrupting mid-run leaves the model
// resumable — clearing the flag and stepping again completes the run
// exactly as an uninterrupted one would.
func TestClearInterruptResumes(t *testing.T) {
	mk := func() (*Kernel, *[]Time) {
		k := NewKernel("resume")
		var dates []Time
		k.Thread("p", func(p *Process) {
			for i := 0; i < 100; i++ {
				dates = append(dates, k.Now())
				p.Wait(NS)
			}
		})
		return k, &dates
	}

	ref, refDates := mk()
	ref.Run(RunForever)

	k, dates := mk()
	k.SetInterruptHook(func() bool { return k.Now() >= 10*NS })
	k.Run(RunForever)
	if !k.Interrupted() {
		t.Fatal("step-budget hook did not latch an interrupt")
	}
	if n := len(*dates); n == 0 || n >= 100 {
		t.Fatalf("interrupted run dispatched %d/100 iterations", n)
	}
	k.ClearInterrupt()
	k.SetInterruptHook(nil)
	k.Run(RunForever)
	if len(*dates) != len(*refDates) {
		t.Fatalf("resumed run: %d dates, want %d", len(*dates), len(*refDates))
	}
	for i := range *dates {
		if (*dates)[i] != (*refDates)[i] {
			t.Fatalf("date %d drifted after resume: %v != %v", i, (*dates)[i], (*refDates)[i])
		}
	}
}

// TestBeaconPublishesTime: Beacon tracks simulated time across polls
// (readable cross-goroutine), while a livelock freezes it at one date
// even as Beat keeps climbing — the discrimination the stall watchdog
// relies on.
func TestBeaconPublishesTime(t *testing.T) {
	k := NewKernel("beacon")
	k.Thread("p", func(p *Process) {
		for i := 0; i < 10; i++ {
			p.Wait(10 * NS)
		}
	})
	k.Run(RunForever)
	if got, want := k.Beacon(), k.Now(); got != want {
		t.Errorf("Beacon = %v after run, want %v", got, want)
	}
	if k.Beat() == 0 {
		t.Error("Beat stayed zero across a full run")
	}

	// A Step that stops at its limit publishes the date it stopped at,
	// not the date of its last poll.
	l := NewKernel("limit")
	l.Thread("p", func(p *Process) { p.Wait(100 * NS) })
	l.Step(50 * NS)
	if l.Now() != 50*NS || l.Beacon() != l.Now() {
		t.Errorf("after Step(50ns): Now = %v, Beacon = %v; want both 50ns", l.Now(), l.Beacon())
	}
	l.Shutdown()

	w := wedgedKernel()
	defer w.Shutdown()
	w.SetInterruptHook(func() bool { return w.Beat() > 1000 })
	w.Run(RunForever)
	if w.Beacon() != 0 {
		t.Errorf("livelocked Beacon = %v, want 0", w.Beacon())
	}
	if w.Beat() <= 1000 {
		t.Errorf("livelocked Beat = %d, want climbing past the budget", w.Beat())
	}
}

// iterations counts the loop iterations a kernel has run so far: one per
// dispatch and one per phase boundary that opened an evaluate phase,
// promoted delta notifications or advanced time.
func iterations(k *Kernel) uint64 {
	s := k.Stats()
	return s.ContextSwitches + s.MethodActivations + s.DeltaCycles + s.TimedSteps + k.deltaPromos
}

// TestInterruptLatencyBound: an interrupt latched from inside a process
// body stops Step within pollEvery loop iterations, whatever the loop is
// busy with. Each model latches in pollEvery consecutive iterations of its
// loop, so some latch lands right after a poll. Every model but the
// livelock is finite, so a countdown that stops ticking shows as a count
// past the bound rather than a hang.
func TestInterruptLatencyBound(t *testing.T) {
	const n = 10000 // iterations of each model's loop
	cases := []struct {
		name  string
		build func(at int, latch func()) *Kernel
	}{
		{"delta-only livelock", func(at int, latch func()) *Kernel {
			k := wedgedKernel()
			k.Thread("latch", func(p *Process) {
				for i := 0; i < at; i++ {
					p.Wait(0)
				}
				latch()
			})
			return k
		}},
		{"timed-only thread loop", func(at int, latch func()) *Kernel {
			k := NewKernel("latency")
			k.Thread("p", func(p *Process) {
				for i := 0; i < n; i++ {
					if i == at {
						latch()
					}
					p.Wait(NS)
				}
			})
			return k
		}},
		{"method-only NextTrigger loop", func(at int, latch func()) *Kernel {
			k := NewKernel("latency")
			i := 0
			k.Method("m", func(p *Process) {
				if i++; i == at {
					latch()
				}
				if i < n {
					p.NextTrigger(0)
				}
			})
			return k
		}},
		{"two-thread hand-off ping-pong", func(at int, latch func()) *Kernel {
			k := NewKernel("latency")
			ping := NewEvent(k, "ping")
			pong := NewEvent(k, "pong")
			k.Thread("a", func(p *Process) {
				for i := 0; i < n; i++ {
					ping.NotifyDelta()
					p.WaitEvent(pong)
				}
			})
			k.Thread("b", func(p *Process) {
				for i := 0; ; i++ {
					p.WaitEvent(ping)
					if i == at {
						latch()
					}
					pong.NotifyDelta()
				}
			})
			return k
		}},
		{"delta events without subscribers", func(at int, latch func()) *Kernel {
			k := NewKernel("latency")
			// Each firing re-notifies the event a delta later: a run
			// of delta phases that dispatch nothing.
			ev := NewEvent(k, "storm")
			fired := 0
			ev.onFire = func() {
				if fired++; fired < n {
					ev.NotifyDelta()
				}
			}
			k.Thread("p", func(p *Process) {
				for i := 0; i < at; i++ {
					p.Wait(0)
				}
				latch()
				ev.NotifyDelta()
			})
			return k
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for at := 300; at < 300+pollEvery; at++ {
				var k *Kernel
				var mark uint64
				latched := false
				k = c.build(at, func() {
					mark, latched = iterations(k), true
					k.Interrupt()
				})
				k.Step(RunForever)
				k.Shutdown()
				if !latched {
					t.Fatalf("latch at %d: the model never latched the interrupt", at)
				}
				if got := iterations(k) - mark; got > pollEvery {
					t.Fatalf("latch at %d: Step returned %d loop iterations after the interrupt, want at most %d", at, got, pollEvery)
				}
			}
		})
	}
}
