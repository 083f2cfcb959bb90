package fifo_test

// The baselines have no native burst path: the package helpers run the
// scalar burst contract loop on them. These tests pin that the helpers are
// indistinguishable from the literal loop written out by hand — same
// values, same local clocks, same kernel counters.

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/fifo"
	"repro/internal/sim"
)

// channel is a FIFO seen from both sides.
type channel interface {
	fifo.Reader[int]
	fifo.Writer[int]
}

// burstRun is what one streaming run observes.
type burstRun struct {
	wEnd, rEnd sim.Time
	vals       []int
	stats      sim.Stats
}

// runFIFOBurst streams nWords through chunked writes/reads on a depth-cell
// channel mk builds; helper selects the fifo burst helpers or the literal scalar
// contract loop. The writer advances per between words, the reader 2*per.
func runFIFOBurst(mk func(*sim.Kernel, int) channel, depth, nWords, wChunk, rChunk int, per sim.Time, helper bool) burstRun {
	k := sim.NewKernel("fb")
	f := mk(k, depth)
	var r burstRun
	r.vals = make([]int, 0, nWords)
	k.Thread("writer", func(p *sim.Process) {
		buf := make([]int, wChunk)
		for next := 0; next < nWords; {
			m := min(wChunk, nWords-next)
			for j := 0; j < m; j++ {
				buf[j] = next + j
			}
			if helper {
				fifo.WriteBurst(p, f, buf[:m], per)
			} else {
				for i, v := range buf[:m] {
					if i > 0 {
						p.Inc(per)
					}
					f.Write(v)
				}
			}
			p.Inc(5 * sim.NS)
			next += m
		}
		r.wEnd = p.LocalTime()
	})
	k.Thread("reader", func(p *sim.Process) {
		buf := make([]int, rChunk)
		for got := 0; got < nWords; {
			m := min(rChunk, nWords-got)
			if helper {
				fifo.ReadBurst(p, f, buf[:m], 2*per)
			} else {
				for i := range buf[:m] {
					if i > 0 {
						p.Inc(2 * per)
					}
					buf[i] = f.Read()
				}
			}
			r.vals = append(r.vals, buf[:m]...)
			p.Inc(sim.NS)
			got += m
		}
		r.rEnd = p.LocalTime()
	})
	k.Run(sim.RunForever)
	r.stats = k.Stats()
	k.Shutdown()
	return r
}

func TestFIFOBurstMatchesScalar(t *testing.T) {
	families := []struct {
		name string
		mk   func(k *sim.Kernel, depth int) channel
	}{
		{"FIFO", func(k *sim.Kernel, depth int) channel { return fifo.New[int](k, "f", depth) }},
		{"SyncFIFO", func(k *sim.Kernel, depth int) channel { return fifo.NewSync[int](k, "f", depth) }},
	}
	for _, fam := range families {
		for _, per := range []sim.Time{0, 3 * sim.NS} {
			for _, depth := range []int{1, 4, 64} {
				want := runFIFOBurst(fam.mk, depth, 300, 7, 5, per, false)
				got := runFIFOBurst(fam.mk, depth, 300, 7, 5, per, true)
				where := fmt.Sprintf("%s per=%v depth=%d", fam.name, per, depth)
				if want.wEnd != got.wEnd || want.rEnd != got.rEnd {
					t.Errorf("%s: final dates differ: scalar (%v, %v), helper (%v, %v)",
						where, want.wEnd, want.rEnd, got.wEnd, got.rEnd)
				}
				if want.stats != got.stats {
					t.Errorf("%s: Stats differ:\n scalar %+v\n helper %+v", where, want.stats, got.stats)
				}
				if !slices.Equal(want.vals, got.vals) {
					t.Errorf("%s: values differ", where)
				}
			}
		}
	}
}

func TestFIFOTryBursts(t *testing.T) {
	k := sim.NewKernel("fb")
	f := fifo.New[int](k, "f", 8)
	k.Thread("p", func(p *sim.Process) {
		in := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
		if n := fifo.TryWriteBurst(p, f, in, sim.NS); n != 8 {
			t.Errorf("TryWriteBurst into depth 8 = %d, want 8", n)
		}
		out := make([]int, 10)
		if n := fifo.TryReadBurst(p, f, out, sim.NS); n != 8 {
			t.Errorf("TryReadBurst = %d, want 8", n)
		}
		for i := 0; i < 8; i++ {
			if out[i] != i+1 {
				t.Errorf("out[%d] = %d", i, out[i])
			}
		}
		if n := fifo.TryReadBurst(p, f, out, sim.NS); n != 0 {
			t.Errorf("TryReadBurst on empty = %d, want 0", n)
		}
	})
	k.Run(sim.RunForever)
	k.Shutdown()
}

// TestSyncFIFOBurstIsPerWord pins the baseline's defining property through
// the burst helpers: every word of a SyncFIFO burst still synchronizes, so the
// context-switch count stays one per access.
func TestSyncFIFOBurstIsPerWord(t *testing.T) {
	k := sim.NewKernel("fb")
	f := fifo.NewSync[int](k, "f", 16)
	const n = 32
	k.Thread("writer", func(p *sim.Process) {
		buf := make([]int, 8)
		for i := 0; i < n; i += 8 {
			p.Inc(2 * sim.NS) // decouple, so every access must re-sync
			fifo.WriteBurst(p, f, buf, 3*sim.NS)
		}
	})
	k.Thread("reader", func(p *sim.Process) {
		buf := make([]int, 8)
		for i := 0; i < n; i += 8 {
			p.Inc(sim.NS)
			fifo.ReadBurst(p, f, buf, 2*sim.NS)
		}
	})
	k.Run(sim.RunForever)
	defer k.Shutdown()
	if sw := k.Stats().ContextSwitches; sw < uint64(n) {
		t.Errorf("SyncFIFO bursts context-switched only %d times for %d words each way", sw, 2*n)
	}
}
