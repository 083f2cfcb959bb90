package sim

import "testing"

// TestHandOffSwitches pins the direct hand-off by its coroutine switch
// count (k.switches: each next call and its return). A thread that parks
// runs the loop on its own coroutine, so a two-thread ping-pong pays one
// switch into the peer and one back per round trip, where entering each
// thread from the Step caller and returning paid four; a lone thread that
// is next after its own park pays nothing.
func TestHandOffSwitches(t *testing.T) {
	t.Run("ping-pong costs 2 switches per round trip", func(t *testing.T) {
		const warm, n = 10, 1000
		k := NewKernel("pingpong")
		defer k.Shutdown()
		ping := NewEvent(k, "ping")
		pong := NewEvent(k, "pong")
		var at [2]uint64
		k.Thread("a", func(p *Process) {
			for i := 0; i <= warm+n; i++ {
				switch i {
				case warm:
					at[0] = k.switches
				case warm + n:
					at[1] = k.switches
				}
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
		k.Run(RunForever)
		if got := at[1] - at[0]; got != 2*n {
			t.Errorf("%d round trips cost %d switches, want %d", n, got, 2*n)
		}
		if got, want := k.Stats().ContextSwitches, uint64(2*(warm+n)+4); got != want {
			t.Errorf("ContextSwitches = %d, want %d (every dispatch counted)", got, want)
		}
	})
	t.Run("a lone thread resumes at no switch", func(t *testing.T) {
		const n = 100
		k := NewKernel("lone")
		var seen []uint64
		k.Thread("p", func(p *Process) {
			for i := 0; i < n; i++ {
				seen = append(seen, k.switches)
				p.Wait(NS)
			}
		})
		k.Run(RunForever)
		for i, s := range seen {
			if s != 2 {
				t.Fatalf("dispatch %d: %d switches so far, want 2 (the first dispatch's)", i, s)
			}
		}
		if k.switches != 2 || k.Stats().ContextSwitches != n+1 {
			t.Errorf("switches = %d over %d dispatches, want 2 over %d", k.switches, k.Stats().ContextSwitches, n+1)
		}
	})
}
