package sim

import (
	"fmt"
	"testing"
)

// Allocation-regression tests: the kernel hot paths must stay at zero
// heap allocations per operation in steady state (after the first rounds
// have grown the reusable queue arrays). These pin the hot paths so they
// cannot silently regress — timed entries are embedded in Process/Event,
// the timed queue is a 4-ary heap of same-date runs, and the delta
// queues double-buffer.

// steadyAllocs warms the kernel up with one step (growing every recycled
// buffer and goroutine stack), then measures the average allocations per
// step.
func steadyAllocs(step func()) float64 {
	step()
	return testing.AllocsPerRun(100, step)
}

func TestWaitZeroAlloc(t *testing.T) {
	k := NewKernel("alloc")
	k.Thread("p", func(p *Process) {
		for {
			p.Wait(NS)
		}
	})
	var end Time
	step := func() { end += 200 * NS; k.Run(end) }
	if n := steadyAllocs(step); n != 0 {
		t.Errorf("Wait steady state: %v allocs per 200 wakeups, want 0", n)
	}
	k.Shutdown()
}

func TestIncSyncZeroAlloc(t *testing.T) {
	k := NewKernel("alloc")
	k.Thread("p", func(p *Process) {
		for {
			for i := 0; i < 512; i++ {
				p.Inc(NS)
			}
			p.Sync()
		}
	})
	var end Time
	step := func() { end += 2048 * NS; k.Run(end) }
	if n := steadyAllocs(step); n != 0 {
		t.Errorf("Inc+Sync steady state: %v allocs per step, want 0", n)
	}
	k.Shutdown()
}

func TestWaitEventTimeoutZeroAlloc(t *testing.T) {
	// Exercises both outcomes: the event winning (in-place removal of the
	// timeout entry) and the timeout expiring.
	k := NewKernel("alloc")
	e := NewEvent(k, "e")
	k.Thread("notifier", func(p *Process) {
		for {
			p.Wait(3 * NS)
			e.Notify()
		}
	})
	k.Thread("waiter", func(p *Process) {
		for {
			p.WaitEventTimeout(e, 2*NS) // expires
			p.WaitEventTimeout(e, 5*NS) // event wins
		}
	})
	var end Time
	step := func() { end += 300 * NS; k.Run(end) }
	if n := steadyAllocs(step); n != 0 {
		t.Errorf("WaitEventTimeout steady state: %v allocs per step, want 0", n)
	}
	k.Shutdown()
}

func TestDelayedNotifyZeroAlloc(t *testing.T) {
	// A producer replacing a pending timed notification every round (the
	// Smart FIFO pattern) with a parked consumer: the event's embedded
	// entry is rescheduled in place.
	k := NewKernel("alloc")
	e := NewEvent(k, "e")
	k.Thread("producer", func(p *Process) {
		for {
			e.NotifyAtReplace(k.Now() + 2*NS)
			p.Wait(2 * NS)
		}
	})
	k.Thread("consumer", func(p *Process) {
		for {
			p.WaitEvent(e)
		}
	})
	var end Time
	step := func() { end += 200 * NS; k.Run(end) }
	if n := steadyAllocs(step); n != 0 {
		t.Errorf("NotifyAtReplace steady state: %v allocs per step, want 0", n)
	}
	k.Shutdown()
}

func TestMethodTickZeroAlloc(t *testing.T) {
	// Sixteen methods re-arming NextTrigger(NS) share one date every
	// cycle, so the queue holds a long same-date run. The waiter's timeout
	// is armed after them on the same cycle grid and joins that run; the
	// notifier, half a cycle off the grid, wins every third round, and the
	// timeout is then removed from inside the run.
	k := NewKernel("alloc")
	for i := 0; i < 16; i++ {
		k.Method(fmt.Sprintf("m%d", i), func(p *Process) { p.NextTrigger(NS) })
	}
	e := NewEvent(k, "e")
	k.Thread("notifier", func(p *Process) {
		p.Wait(NS / 2)
		for {
			p.Wait(3 * NS)
			e.Notify()
		}
	})
	k.Thread("waiter", func(p *Process) {
		for {
			if p.WaitEventTimeout(e, NS) {
				p.Wait(NS / 2) // back onto the cycle grid
			}
		}
	})
	var end Time
	step := func() { end += 300 * NS; k.Run(end) }
	if n := steadyAllocs(step); n != 0 {
		t.Errorf("method tick steady state: %v allocs per step, want 0", n)
	}
	k.Shutdown()
}
