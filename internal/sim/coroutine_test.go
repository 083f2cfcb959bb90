package sim_test

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/sim"
)

// stepDates runs a three-thread model in 7 ns Steps and returns every
// wake-up date in dispatch order. step performs one Step call; the
// caller chooses which goroutine it runs on.
func stepDates(step func(func())) []sim.Time {
	k := sim.NewKernel("step")
	defer k.Shutdown()
	ev := sim.NewEvent(k, "ev")
	var dates []sim.Time
	k.Thread("ticker", func(p *sim.Process) {
		for i := 0; i < 40; i++ {
			p.Wait(3 * sim.NS)
			dates = append(dates, k.Now())
			ev.Notify()
		}
	})
	k.Thread("listener", func(p *sim.Process) {
		for {
			p.WaitEvent(ev)
			dates = append(dates, k.Now())
		}
	})
	k.Thread("decoupled", func(p *sim.Process) {
		for i := 0; i < 25; i++ {
			p.Inc(5 * sim.NS)
			p.Sync()
			dates = append(dates, k.Now())
		}
	})
	for limit := sim.Time(0); limit <= 140*sim.NS; limit += 7 * sim.NS {
		step(func() { k.Step(limit) })
	}
	return dates
}

// settledGoroutines returns the goroutine count once it has stopped
// falling. An earlier test's goroutine may still be exiting; counted in the
// baseline, it would let a goroutine the test then spawns hide behind its
// exit. A count still falling after a second is returned as last sampled.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m >= n {
			return n
		}
		n = m
	}
	return n
}

// TestThreadSwitchEdges pins what the coroutine process switch does at
// its edges.
func TestThreadSwitchEdges(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"shutdown of a never-dispatched thread skips its body", func(t *testing.T) {
			before := settledGoroutines()
			k := sim.NewKernel("k")
			ran := false
			p := k.Thread("idle", func(*sim.Process) { ran = true })
			k.Shutdown()
			if ran || !p.Terminated() {
				t.Errorf("ran = %v, terminated = %v; want false, true", ran, p.Terminated())
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("goroutines: %d before, %d after", before, n)
			}
			k.Run(sim.RunForever)
			if ran {
				t.Error("a shut-down thread ran")
			}
		}},
		{"an unrun kernel owns no goroutines", func(t *testing.T) {
			before := settledGoroutines()
			k := sim.NewKernel("k")
			for i := 0; i < 1000; i++ {
				k.Thread(fmt.Sprint("t", i), func(p *sim.Process) { p.Wait(sim.NS) })
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("goroutines: %d before registration, %d after", before, n)
			}
		}},
		{"a body that recovers the kill and waits again is terminated", func(t *testing.T) {
			defer leakcheck.Check(t)()
			k := sim.NewKernel("k")
			kills := 0
			p := k.Thread("stubborn", func(p *sim.Process) {
				for i := 0; i < 3; i++ {
					func() {
						defer func() {
							if recover() != nil {
								kills++
							}
						}()
						p.Wait(sim.NS)
					}()
				}
			})
			k.Run(0)
			k.Shutdown()
			if kills != 3 || !p.Terminated() {
				t.Errorf("kills = %d, terminated = %v; want 3, true", kills, p.Terminated())
			}
		}},
		{"runtime.Goexit in a body ends the Run caller", func(t *testing.T) {
			defer leakcheck.Check(t)()
			k := sim.NewKernel("k")
			defer k.Shutdown()
			p := k.Thread("quitter", func(p *sim.Process) {
				p.Wait(sim.NS)
				runtime.Goexit() // what t.FailNow does
			})
			k.Thread("other", func(p *sim.Process) { p.Wait(sim.SEC) })
			done := make(chan struct{})
			returned := false
			go func() {
				defer close(done)
				k.Run(sim.RunForever)
				returned = true
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("Run caller neither returned nor exited")
			}
			if returned || !p.Terminated() {
				t.Errorf("Run returned = %v, terminated = %v; want false, true", returned, p.Terminated())
			}
		}},
		{"Step alternating between two goroutines keeps the dates", func(t *testing.T) {
			defer leakcheck.Check(t)()
			want := stepDates(func(step func()) { step() })
			work := [2]chan func(){make(chan func()), make(chan func())}
			done := make(chan struct{})
			for _, w := range work {
				go func() {
					for step := range w {
						step()
						done <- struct{}{}
					}
				}()
			}
			i := 0
			got := stepDates(func(step func()) {
				work[i%2] <- step
				<-done
				i++
			})
			close(work[0])
			close(work[1])
			if len(want) == 0 || !slices.Equal(got, want) {
				t.Errorf("dates differ:\n one goroutine: %v\n two goroutines: %v", want, got)
			}
		}},
		{"a user panic reaches the Run caller with the process name", func(t *testing.T) {
			defer leakcheck.Check(t)()
			k := sim.NewKernel("k")
			defer k.Shutdown()
			k.Thread("bad", func(p *sim.Process) {
				p.Wait(sim.NS)
				panic(errors.New("boom: 42"))
			})
			defer func() {
				const want = `sim: process "bad" panicked: boom: 42`
				if r := recover(); r != want {
					t.Errorf("recovered %#v, want %q", r, want)
				}
			}()
			k.Run(sim.RunForever)
		}},
		{"a panic in a thread entered by hand-off blames that thread", func(t *testing.T) {
			defer leakcheck.Check(t)()
			k := sim.NewKernel("k")
			a, _ := handOffPair(k, func() { panic("boom") })
			defer func() {
				const want = `sim: process "b" panicked: boom`
				if r := recover(); r != want {
					t.Errorf("recovered %#v, want %q", r, want)
				}
				if a.Terminated() {
					t.Error("the handing thread was terminated by its peer's panic")
				}
				k.Shutdown()
				if !a.Terminated() {
					t.Error("Shutdown left the handing thread live")
				}
			}()
			k.Run(sim.RunForever)
		}},
		{"a method panic on a thread's coroutine keeps its raw value", func(t *testing.T) {
			defer leakcheck.Check(t)()
			k := sim.NewKernel("k")
			defer k.Shutdown()
			boom := errors.New("boom")
			ev := sim.NewEvent(k, "ev")
			k.MethodNoInit("m", func(*sim.Process) { panic(boom) }, ev)
			a := k.Thread("a", func(p *sim.Process) {
				p.Wait(sim.NS)
				ev.NotifyDelta()
				p.Wait(sim.NS) // the loop runs m from a's park
			})
			defer func() {
				if r := recover(); r != boom {
					t.Errorf("recovered %#v, want the method's own value", r)
				}
				if a.Terminated() {
					t.Error("the thread whose coroutine ran the method was terminated")
				}
			}()
			k.Run(sim.RunForever)
		}},
		{"runtime.Goexit in a handed-off thread ends the Run caller", func(t *testing.T) {
			defer leakcheck.Check(t)()
			k := sim.NewKernel("k")
			_, b := handOffPair(k, runtime.Goexit)
			done := make(chan struct{})
			returned := false
			go func() {
				defer close(done)
				k.Run(sim.RunForever)
				returned = true
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("Run caller neither returned nor exited")
			}
			k.Shutdown()
			if returned || !b.Terminated() {
				t.Errorf("Run returned = %v, terminated = %v; want false, true", returned, b.Terminated())
			}
		}},
		{"Shutdown after an interrupt mid-hand-off cleans up each thread once", func(t *testing.T) {
			defer leakcheck.Check(t)()
			k := sim.NewKernel("k")
			ping := sim.NewEvent(k, "ping")
			pong := sim.NewEvent(k, "pong")
			cleanups := map[string]int{}
			k.Thread("a", func(p *sim.Process) {
				defer func() { cleanups["a"]++ }()
				for {
					ping.NotifyDelta()
					p.WaitEvent(pong)
				}
			})
			k.Thread("b", func(p *sim.Process) {
				defer func() { cleanups["b"]++ }()
				for i := 0; ; i++ {
					p.WaitEvent(ping) // entered by a's park from round 1 on
					if i == 100 {
						k.Interrupt()
					}
					pong.NotifyDelta()
				}
			})
			k.Run(sim.RunForever)
			if !k.Interrupted() {
				t.Fatal("the interrupt did not stop the run")
			}
			k.Shutdown()
			if cleanups["a"] != 1 || cleanups["b"] != 1 {
				t.Errorf("deferred cleanups ran %v, want once per thread", cleanups)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, c.run)
	}
}

// handOffPair registers threads a and b, both woken at 1 ns with a first.
// a parks again at once, so it enters b from its own coroutine, and b
// then calls quit.
func handOffPair(k *sim.Kernel, quit func()) (a, b *sim.Process) {
	a = k.Thread("a", func(p *sim.Process) {
		p.Wait(sim.NS)
		p.Wait(sim.SEC)
	})
	b = k.Thread("b", func(p *sim.Process) {
		p.Wait(sim.NS)
		quit()
	})
	return a, b
}
