package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fifo"
	"repro/internal/sim"
)

// TestFig2ReferenceTiming pins the reference execution of the paper's
// Fig. 1 example, simulated with a regular FIFO and no temporal decoupling
// (Fig. 2): writes complete at 0/20/40 ns, reads complete at 0/20/40 ns
// (the reader blocks 5 ns twice), the reader finishes at 55 ns and the
// writer at 60 ns.
func TestFig2ReferenceTiming(t *testing.T) {
	k := sim.NewKernel("fig2")
	f := fifo.New[int](k, "fifo", 4)
	var writes, reads []sim.Time
	var endW, endR sim.Time
	k.Thread("writer", func(p *sim.Process) {
		for i := 1; i <= 3; i++ {
			f.Write(i)
			writes = append(writes, k.Now())
			p.Wait(20 * sim.NS)
		}
		endW = k.Now()
	})
	k.Thread("reader", func(p *sim.Process) {
		for i := 1; i <= 3; i++ {
			v := f.Read()
			if v != i {
				t.Errorf("read %d, want %d", v, i)
			}
			reads = append(reads, k.Now())
			p.Wait(15 * sim.NS)
		}
		endR = k.Now()
	})
	k.Run(sim.RunForever)
	wantW := []sim.Time{0, 20 * sim.NS, 40 * sim.NS}
	wantR := []sim.Time{0, 20 * sim.NS, 40 * sim.NS}
	for i := range wantW {
		if writes[i] != wantW[i] {
			t.Errorf("write %d at %v, want %v", i, writes[i], wantW[i])
		}
		if reads[i] != wantR[i] {
			t.Errorf("read %d at %v, want %v", i, reads[i], wantR[i])
		}
	}
	if endW != 60*sim.NS || endR != 55*sim.NS {
		t.Errorf("ends: writer %v reader %v, want 60ns/55ns", endW, endR)
	}
}

// TestFig3NaiveDecouplingIsWrong shows the failure the Smart FIFO fixes: a
// regular FIFO with decoupled processes and no synchronization lets the
// reader consume all data at global date 0, so its local dates are wrong
// (reads at 0/15/30 instead of 0/20/40).
func TestFig3NaiveDecouplingIsWrong(t *testing.T) {
	k := sim.NewKernel("fig3")
	f := fifo.New[int](k, "fifo", 4)
	var reads []sim.Time
	k.Thread("writer", func(p *sim.Process) {
		for i := 1; i <= 3; i++ {
			f.Write(i)
			p.Inc(20 * sim.NS)
		}
	})
	k.Thread("reader", func(p *sim.Process) {
		for i := 1; i <= 3; i++ {
			f.Read()
			reads = append(reads, p.LocalTime())
			p.Inc(15 * sim.NS)
		}
	})
	k.Run(sim.RunForever)
	// All FIFO accesses are taken into account at t=0 (paper Fig. 3):
	// the reader never waits, so its read dates are 0, 15, 30 — a
	// timing error versus the 0, 20, 40 reference.
	want := []sim.Time{0, 15 * sim.NS, 30 * sim.NS}
	for i := range want {
		if reads[i] != want[i] {
			t.Errorf("naive read %d at %v, want %v", i, reads[i], want[i])
		}
	}
}

// TestSmartFIFOFig2Timing is the paper's headline accuracy claim on the
// Fig. 1 example: with the Smart FIFO and full temporal decoupling, all
// dates match the non-decoupled reference exactly, for every FIFO depth.
func TestSmartFIFOFig2Timing(t *testing.T) {
	for depth := 1; depth <= 5; depth++ {
		k := sim.NewKernel("fig2smart")
		f := core.NewSmart[int](k, "fifo", depth)
		var writes, reads []sim.Time
		k.Thread("writer", func(p *sim.Process) {
			for i := 1; i <= 3; i++ {
				f.Write(i)
				writes = append(writes, p.LocalTime())
				p.Inc(20 * sim.NS)
			}
		})
		k.Thread("reader", func(p *sim.Process) {
			for i := 1; i <= 3; i++ {
				v := f.Read()
				if v != i {
					t.Errorf("depth %d: read %d, want %d", depth, v, i)
				}
				reads = append(reads, p.LocalTime())
				p.Inc(15 * sim.NS)
			}
		})
		k.Run(sim.RunForever)
		k.Shutdown()
		wantW := []sim.Time{0, 20 * sim.NS, 40 * sim.NS}
		for i := range wantW {
			if writes[i] != wantW[i] {
				t.Errorf("depth %d: write %d at %v, want %v", depth, i, writes[i], wantW[i])
			}
			if reads[i] != wantW[i] {
				t.Errorf("depth %d: read %d at %v, want %v", depth, i, reads[i], wantW[i])
			}
		}
	}
}

// TestWriterBackPressureTiming checks the write-side timestamps: with a
// depth-1 FIFO, a fast writer must inherit the reader's freeing dates.
func TestWriterBackPressureTiming(t *testing.T) {
	k := sim.NewKernel("bp")
	f := core.NewSmart[int](k, "fifo", 1)
	var writes []sim.Time
	k.Thread("writer", func(p *sim.Process) {
		for i := 0; i < 4; i++ {
			f.Write(i)
			writes = append(writes, p.LocalTime())
			// No annotation: the writer is infinitely fast.
		}
	})
	k.Thread("reader", func(p *sim.Process) {
		for i := 0; i < 4; i++ {
			f.Read()
			p.Inc(10 * sim.NS)
		}
	})
	k.Run(sim.RunForever)
	// Reader frees the single cell at 0, 10, 20 (read i completes at
	// i*10). The writer writes at 0, then at each freeing date.
	want := []sim.Time{0, 0, 10 * sim.NS, 20 * sim.NS}
	for i := range want {
		if writes[i] != want[i] {
			t.Errorf("write %d at %v, want %v", i, writes[i], want[i])
		}
	}
}

// TestReaderAdvancesWithoutContextSwitch verifies the mechanism: a slow
// reader of an already-filled Smart FIFO advances its clock from the
// timestamps and never parks.
func TestReaderAdvancesWithoutContextSwitch(t *testing.T) {
	k := sim.NewKernel("adv")
	f := core.NewSmart[int](k, "fifo", 16)
	k.Thread("writer", func(p *sim.Process) {
		for i := 0; i < 16; i++ {
			f.Write(i)
			p.Inc(5 * sim.NS)
		}
	})
	k.Thread("reader", func(p *sim.Process) {
		for i := 0; i < 16; i++ {
			f.Read()
		}
		if got, want := p.LocalTime(), 75*sim.NS; got != want {
			t.Errorf("reader local date %v, want %v (last insertion)", got, want)
		}
	})
	k.Run(sim.RunForever)
	st := f.Stats()
	if st.ReaderBlocks != 0 {
		t.Errorf("ReaderBlocks = %d, want 0", st.ReaderBlocks)
	}
	if st.ReaderAdvances == 0 {
		t.Error("ReaderAdvances = 0, want >0: clock must advance from timestamps")
	}
	// Only the two initial dispatches: no blocking at all.
	if cs := k.Stats().ContextSwitches; cs != 2 {
		t.Errorf("ContextSwitches = %d, want 2", cs)
	}
}

// TestDepthControlsContextSwitches reproduces the Fig. 5 mechanism at unit
// scale: the number of context switches decreases as the FIFO gets deeper.
func TestDepthControlsContextSwitches(t *testing.T) {
	run := func(depth int) uint64 {
		k := sim.NewKernel("cs")
		f := core.NewSmart[int](k, "fifo", depth)
		const n = 256
		k.Thread("writer", func(p *sim.Process) {
			for i := 0; i < n; i++ {
				f.Write(i)
				p.Inc(10 * sim.NS)
			}
		})
		k.Thread("reader", func(p *sim.Process) {
			for i := 0; i < n; i++ {
				f.Read()
				p.Inc(10 * sim.NS)
			}
		})
		k.Run(sim.RunForever)
		return k.Stats().ContextSwitches
	}
	cs1, cs4, cs64 := run(1), run(4), run(64)
	if !(cs1 > cs4 && cs4 > cs64) {
		t.Errorf("context switches not decreasing with depth: d1=%d d4=%d d64=%d", cs1, cs4, cs64)
	}
}

// TestIsEmptyTwoTests exercises the §III-B two-test rule directly.
func TestIsEmptyTwoTests(t *testing.T) {
	k := sim.NewKernel("ie")
	f := core.NewSmart[int](k, "fifo", 4)
	k.Thread("writer", func(p *sim.Process) {
		p.Inc(30 * sim.NS) // decoupled: writes with local date 30
		f.Write(7)
	})
	k.Thread("probe", func(p *sim.Process) {
		p.Wait(0) // let the writer's internal write happen
		// Synchronized probe at global 0: internally busy, but the
		// insertion date (30ns) is in the future, so externally
		// empty.
		if !f.IsEmpty() {
			t.Error("IsEmpty at t=0 = false, want true (insertion at 30ns)")
		}
		p.Wait(30 * sim.NS)
		if f.IsEmpty() {
			t.Error("IsEmpty at t=30ns = true, want false")
		}
	})
	k.Run(sim.RunForever)
}

// TestIsFullSymmetric exercises the writer-side rule: a freed-in-the-future
// cell keeps the FIFO externally full.
func TestIsFullSymmetric(t *testing.T) {
	k := sim.NewKernel("if")
	f := core.NewSmart[int](k, "fifo", 1)
	k.Thread("writer", func(p *sim.Process) {
		f.Write(1) // fills the only cell at 0
	})
	k.Thread("reader", func(p *sim.Process) {
		p.Inc(25 * sim.NS)
		f.Read() // frees internally at global 0, freeing date 25ns
	})
	k.Thread("probe", func(p *sim.Process) {
		p.Wait(0)
		p.Wait(0) // after writer and reader internal operations
		if !f.IsFull() {
			t.Error("IsFull at t=0 = false, want true (freeing at 25ns)")
		}
		p.Wait(25 * sim.NS)
		if f.IsFull() {
			t.Error("IsFull at t=25ns = true, want false")
		}
	})
	k.Run(sim.RunForever)
}

// TestNotEmptyDelayedNotification verifies §III-B case 1: when a decoupled
// writer fills an all-free FIFO, NotEmpty fires at the insertion date, not
// at the internal-change date.
func TestNotEmptyDelayedNotification(t *testing.T) {
	k := sim.NewKernel("ne")
	f := core.NewSmart[int](k, "fifo", 4)
	var woken sim.Time = -1
	k.Thread("writer", func(p *sim.Process) {
		p.Inc(40 * sim.NS)
		f.Write(1) // internal change at global 0, insertion date 40ns
	})
	k.Thread("listener", func(p *sim.Process) {
		p.WaitEvent(f.NotEmpty())
		woken = k.Now()
	})
	k.Run(sim.RunForever)
	if woken != 40*sim.NS {
		t.Errorf("NotEmpty fired at %v, want 40ns", woken)
	}
}

// TestNotEmptyCase2 verifies §III-B case 2: after a read, if the next busy
// cell's insertion date is in the future, NotEmpty is re-armed for it.
func TestNotEmptyCase2(t *testing.T) {
	k := sim.NewKernel("ne2")
	f := core.NewSmart[int](k, "fifo", 4)
	var wakes []sim.Time
	k.Thread("writer", func(p *sim.Process) {
		f.Write(1)
		p.Inc(50 * sim.NS)
		f.Write(2) // insertion date 50ns
	})
	k.Thread("reader", func(p *sim.Process) {
		// A synchronized consumer that uses events, like a method
		// would.
		for i := 0; i < 2; i++ {
			for f.IsEmpty() {
				p.WaitEvent(f.NotEmpty())
				wakes = append(wakes, k.Now())
			}
			f.Read()
		}
	})
	k.Run(sim.RunForever)
	// First datum available immediately (no wait); second becomes
	// externally available at 50ns.
	if len(wakes) != 1 || wakes[0] != 50*sim.NS {
		t.Errorf("NotEmpty wakes = %v, want [50ns]", wakes)
	}
}

// TestNotFullDelayedNotification is the symmetric §III-B case for writers.
func TestNotFullDelayedNotification(t *testing.T) {
	k := sim.NewKernel("nf")
	f := core.NewSmart[int](k, "fifo", 1)
	var woken sim.Time = -1
	k.Thread("writer", func(p *sim.Process) {
		f.Write(1)
	})
	k.Thread("reader", func(p *sim.Process) {
		p.Inc(35 * sim.NS)
		f.Read() // frees internally at 0, freeing date 35ns
	})
	k.Thread("listener", func(p *sim.Process) {
		p.WaitEvent(f.NotFull())
		woken = k.Now()
	})
	k.Run(sim.RunForever)
	if woken != 35*sim.NS {
		t.Errorf("NotFull fired at %v, want 35ns", woken)
	}
}

// TestMonitorSizeBasic: Size depends on both the internal state and the
// caller's date (§III-C example: write at global 10 with local 20
// increments the real size at 20 only).
func TestMonitorSizeBasic(t *testing.T) {
	k := sim.NewKernel("sz")
	f := core.NewSmart[int](k, "fifo", 4)
	k.Thread("writer", func(p *sim.Process) {
		p.Wait(10 * sim.NS) // global 10
		p.Inc(10 * sim.NS)  // local 20
		f.Write(1)
	})
	var sizes []int
	k.Thread("monitor", func(p *sim.Process) {
		for _, at := range []sim.Time{5, 15, 25} {
			for p.LocalTime() < at*sim.NS {
				p.Wait(at*sim.NS - p.LocalTime())
			}
			sizes = append(sizes, f.Size())
		}
	})
	k.Run(sim.RunForever)
	want := []int{0, 0, 1} // size becomes 1 at t=20ns, not at t=10ns
	for i := range want {
		if sizes[i] != want[i] {
			t.Errorf("size[%d] = %d, want %d", i, sizes[i], want[i])
		}
	}
}

// TestMonitorSizeFreedRefilled drives the subtle §III-C rules: a cell that
// was freed and refilled internally must still be interpreted correctly
// for a query date before the freeing date.
func TestMonitorSizeFreedRefilled(t *testing.T) {
	k := sim.NewKernel("szfr")
	f := core.NewSmart[int](k, "fifo", 1)
	k.Thread("writer", func(p *sim.Process) {
		f.Write(1) // insert at 0
		p.Inc(10 * sim.NS)
		f.Write(2) // cell freed at 30ns: write lands at 30ns
	})
	k.Thread("reader", func(p *sim.Process) {
		p.Inc(30 * sim.NS)
		f.Read() // frees internally early, freeing date 30ns
		p.Inc(25 * sim.NS)
		f.Read() // second datum read at 55ns
	})
	var sizes []int
	k.Thread("monitor", func(p *sim.Process) {
		for _, at := range []sim.Time{20, 40, 60} {
			for p.LocalTime() < at*sim.NS {
				p.Wait(at*sim.NS - p.LocalTime())
			}
			sizes = append(sizes, f.Size())
		}
	})
	k.Run(sim.RunForever)
	// Real FIFO contents: datum 1 from 0 to 30ns; datum 2 from 30ns to
	// 55ns; empty after.
	want := []int{1, 1, 0}
	for i := range want {
		if sizes[i] != want[i] {
			t.Errorf("size at %v = %d, want %d", []sim.Time{20, 40, 60}[i]*sim.NS, sizes[i], want[i])
		}
	}
}

// TestSizeMatchesRegularFIFOWhenSynchronized: with synchronized processes
// the Smart FIFO monitor must agree with a regular FIFO's counter.
func TestSizeMatchesRegularFIFOWhenSynchronized(t *testing.T) {
	k := sim.NewKernel("szsync")
	sf := core.NewSmart[int](k, "smart", 3)
	rf := fifo.New[int](k, "ref", 3)
	k.Thread("writer", func(p *sim.Process) {
		for i := 0; i < 6; i++ {
			sf.Write(i)
			rf.Write(i)
			p.Wait(7 * sim.NS)
		}
	})
	k.Thread("reader", func(p *sim.Process) {
		for i := 0; i < 6; i++ {
			p.Wait(11 * sim.NS)
			sf.Read()
			rf.Read()
		}
	})
	k.Thread("monitor", func(p *sim.Process) {
		for i := 0; i < 20; i++ {
			p.Wait(5 * sim.NS)
			if s, r := sf.Size(), rf.Size(); s != r {
				t.Errorf("t=%v: smart size %d != regular size %d", k.Now(), s, r)
			}
		}
	})
	k.Run(sim.RunForever)
	k.Shutdown()
}

// TestTryReadTryWrite covers the non-blocking accessors from a thread.
func TestTryReadTryWrite(t *testing.T) {
	k := sim.NewKernel("try")
	f := core.NewSmart[int](k, "fifo", 2)
	k.Thread("p", func(p *sim.Process) {
		if _, ok := f.TryRead(); ok {
			t.Error("TryRead on empty FIFO succeeded")
		}
		if !f.TryWrite(1) || !f.TryWrite(2) {
			t.Error("TryWrite on non-full FIFO failed")
		}
		if f.TryWrite(3) {
			t.Error("TryWrite on full FIFO succeeded")
		}
		v, ok := f.TryRead()
		if !ok || v != 1 {
			t.Errorf("TryRead = %d,%v; want 1,true", v, ok)
		}
	})
	k.Run(sim.RunForever)
}

// TestParkedAccessIsNotAnAdvance: an access that parks resumes at the
// global date its peer woke it at, so a cell freed (or filled) at exactly
// that date costs it no further advance. Counting one would report a
// saved context switch that was in fact paid.
func TestParkedAccessIsNotAnAdvance(t *testing.T) {
	for _, side := range []string{"writer", "reader"} {
		t.Run(side, func(t *testing.T) {
			k := sim.NewKernel("park")
			f := core.NewSmart[int](k, "fifo", 1)
			var resumed sim.Time
			if side == "writer" {
				// The second write parks on the full cell; the reader
				// frees it at global date 50ns.
				k.Thread("writer", func(p *sim.Process) {
					f.Write(1)
					f.Write(2)
					resumed = p.LocalTime()
				})
				k.Thread("reader", func(p *sim.Process) {
					p.Wait(50 * sim.NS)
					f.Read()
				})
			} else {
				// The read parks on the empty cell; the writer fills
				// it at global date 50ns.
				k.Thread("reader", func(p *sim.Process) {
					f.Read()
					resumed = p.LocalTime()
				})
				k.Thread("writer", func(p *sim.Process) {
					p.Wait(50 * sim.NS)
					f.Write(1)
				})
			}
			k.Run(sim.RunForever)
			k.Shutdown()
			if resumed != 50*sim.NS {
				t.Errorf("parked %s resumed at %v, want 50ns", side, resumed)
			}
			st := f.Stats()
			want := core.Stats{Writes: 2, Reads: 1, WriterBlocks: 1}
			if side == "reader" {
				want = core.Stats{Writes: 1, Reads: 1, ReaderBlocks: 1}
			}
			if st != want {
				t.Errorf("stats %+v, want %+v", st, want)
			}
		})
	}
}

// TestAccessDisciplinePanics: decreasing local dates on one side must be
// rejected (the §III precondition), and so must an access outside a
// process. Each row pins the full panic text: channel, side, process and
// both dates.
func TestAccessDisciplinePanics(t *testing.T) {
	const order = "each side needs non-decreasing dates (add an Arbiter if several processes share a side)"
	// inThread runs process p1, then p2 one delta later at local date 0,
	// and returns the text p2's access panicked with.
	inThread := func(k *sim.Kernel, p1 func(*sim.Process), p2 func()) string {
		var msg string
		k.Thread("p1", p1)
		k.Thread("p2", func(p *sim.Process) {
			p.Wait(0)
			msg = panicText(p2)
		})
		k.Run(sim.RunForever)
		k.Shutdown()
		return msg
	}
	cases := []struct {
		name string
		run  func(k *sim.Kernel, f *core.SmartFIFO[int]) string
		want string
	}{
		{"write date decreases", func(k *sim.Kernel, f *core.SmartFIFO[int]) string {
			return inThread(k, func(p *sim.Process) {
				p.Inc(50 * sim.NS)
				f.Write(1)
			}, func() { f.Write(2) })
		}, `core: fifo: write access by "p2" at local date 0s after an access at 50ns; ` + order},
		{"read date decreases", func(k *sim.Kernel, f *core.SmartFIFO[int]) string {
			return inThread(k, func(p *sim.Process) {
				f.Write(1)
				f.Write(2)
				p.Inc(70 * sim.NS)
				f.Read()
			}, func() { f.Read() })
		}, `core: fifo: read access by "p2" at local date 0s after an access at 70ns; ` + order},
		{"Write outside a process", func(k *sim.Kernel, f *core.SmartFIFO[int]) string {
			return panicText(func() { f.Write(1) })
		}, "core: fifo: Write outside a process"},
		{"Read outside a process", func(k *sim.Kernel, f *core.SmartFIFO[int]) string {
			return panicText(func() { f.Read() })
		}, "core: fifo: Read outside a process"},
		{"IsEmpty outside a process", func(k *sim.Kernel, f *core.SmartFIFO[int]) string {
			return panicText(func() { f.IsEmpty() })
		}, "core: fifo: IsEmpty outside a process"},
		{"IsFull outside a process", func(k *sim.Kernel, f *core.SmartFIFO[int]) string {
			return panicText(func() { f.IsFull() })
		}, "core: fifo: IsFull outside a process"},
		{"Size outside a process", func(k *sim.Kernel, f *core.SmartFIFO[int]) string {
			return panicText(func() { f.Size() })
		}, "core: fifo: Size outside a process"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k := sim.NewKernel("disc")
			f := core.NewSmart[int](k, "fifo", 8)
			if got := c.run(k, f); got != c.want {
				t.Errorf("panic = %q\nwant    %q", got, c.want)
			}
		})
	}
}

// panicText runs f and returns the value it panicked with, as text, or ""
// if it returned normally.
func panicText(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestFIFOOrderPreserved: data comes out in insertion order across blocking
// and advancing paths.
func TestFIFOOrderPreserved(t *testing.T) {
	k := sim.NewKernel("order")
	f := core.NewSmart[int](k, "fifo", 3)
	const n = 100
	var got []int
	k.Thread("writer", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			f.Write(i)
			p.Inc(sim.Time(1+i%7) * sim.NS)
		}
	})
	k.Thread("reader", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			got = append(got, f.Read())
			p.Inc(sim.Time(1+i%5) * sim.NS)
		}
	})
	k.Run(sim.RunForever)
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d; order not preserved", i, v)
		}
	}
}

// TestBurst covers the packetization extension.
func TestBurst(t *testing.T) {
	k := sim.NewKernel("burst")
	f := core.NewSmart[int](k, "fifo", 8)
	src := []int{10, 11, 12, 13}
	k.Thread("writer", func(p *sim.Process) {
		f.WriteBurst(src, 5*sim.NS)
		if p.LocalTime() != 15*sim.NS {
			t.Errorf("writer local after burst = %v, want 15ns", p.LocalTime())
		}
	})
	k.Thread("reader", func(p *sim.Process) {
		dst := make([]int, 4)
		f.ReadBurst(dst, 5*sim.NS)
		for i := range src {
			if dst[i] != src[i] {
				t.Errorf("dst[%d] = %d, want %d", i, dst[i], src[i])
			}
		}
		// Word i inserted at 5i ns; reading advances to each insertion
		// date: final local date = 15ns.
		if p.LocalTime() != 15*sim.NS {
			t.Errorf("reader local after burst = %v, want 15ns", p.LocalTime())
		}
	})
	k.Run(sim.RunForever)
}

// TestTryReadBurstStopsAtEmpty: the non-blocking burst reads only what is
// externally available.
func TestTryReadBurstStopsAtEmpty(t *testing.T) {
	k := sim.NewKernel("tryburst")
	f := core.NewSmart[int](k, "fifo", 8)
	k.Thread("writer", func(p *sim.Process) {
		f.Write(1)
		f.Write(2)
		p.Inc(100 * sim.NS)
		f.Write(3) // far in the local future
	})
	k.Thread("reader", func(p *sim.Process) {
		p.Wait(0)
		dst := make([]int, 8)
		n := f.TryReadBurst(dst, sim.NS)
		if n != 2 {
			t.Errorf("TryReadBurst = %d words, want 2 (third is future-dated)", n)
		}
	})
	k.Run(sim.RunForever)
	k.Shutdown()
}

// TestDepthOnePingPong: the tightest configuration still preserves exact
// timing against the reference.
func TestDepthOnePingPong(t *testing.T) {
	type result struct{ w, r []sim.Time }
	ref := func() result {
		k := sim.NewKernel("ref")
		f := fifo.New[int](k, "fifo", 1)
		var res result
		k.Thread("writer", func(p *sim.Process) {
			for i := 0; i < 10; i++ {
				f.Write(i)
				res.w = append(res.w, k.Now())
				p.Wait(3 * sim.NS)
			}
		})
		k.Thread("reader", func(p *sim.Process) {
			for i := 0; i < 10; i++ {
				f.Read()
				res.r = append(res.r, k.Now())
				p.Wait(8 * sim.NS)
			}
		})
		k.Run(sim.RunForever)
		return res
	}
	smart := func() result {
		k := sim.NewKernel("smart")
		f := core.NewSmart[int](k, "fifo", 1)
		var res result
		k.Thread("writer", func(p *sim.Process) {
			for i := 0; i < 10; i++ {
				f.Write(i)
				res.w = append(res.w, p.LocalTime())
				p.Inc(3 * sim.NS)
			}
		})
		k.Thread("reader", func(p *sim.Process) {
			for i := 0; i < 10; i++ {
				f.Read()
				res.r = append(res.r, p.LocalTime())
				p.Inc(8 * sim.NS)
			}
		})
		k.Run(sim.RunForever)
		return res
	}
	a, b := ref(), smart()
	for i := range a.w {
		if a.w[i] != b.w[i] {
			t.Errorf("write %d: ref %v, smart %v", i, a.w[i], b.w[i])
		}
		if a.r[i] != b.r[i] {
			t.Errorf("read %d: ref %v, smart %v", i, a.r[i], b.r[i])
		}
	}
}

// TestStatsCounters sanity-checks the instrumentation used by Fig. 5.
func TestStatsCounters(t *testing.T) {
	k := sim.NewKernel("stats")
	f := core.NewSmart[int](k, "fifo", 2)
	k.Thread("writer", func(p *sim.Process) {
		for i := 0; i < 10; i++ {
			f.Write(i)
			p.Inc(sim.NS)
		}
	})
	k.Thread("reader", func(p *sim.Process) {
		for i := 0; i < 10; i++ {
			f.Read()
			p.Inc(2 * sim.NS)
		}
	})
	k.Run(sim.RunForever)
	st := f.Stats()
	if st.Writes != 10 || st.Reads != 10 {
		t.Errorf("Writes/Reads = %d/%d, want 10/10", st.Writes, st.Reads)
	}
	if st.WriterBlocks == 0 {
		t.Error("WriterBlocks = 0: a fast writer into depth 2 must block")
	}
}

// TestZeroDepthPanics validates constructor input checking.
func TestZeroDepthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSmart with depth 0 did not panic")
		}
	}()
	core.NewSmart[int](sim.NewKernel("z"), "fifo", 0)
}

// TestMethodReaderWithNextTrigger models the §III-B SC_METHOD consumer
// pattern end to end.
func TestMethodReaderWithNextTrigger(t *testing.T) {
	k := sim.NewKernel("method")
	f := core.NewSmart[int](k, "fifo", 4)
	var got []int
	var dates []sim.Time
	k.MethodNoInit("consumer", func(p *sim.Process) {
		for {
			if f.IsEmpty() {
				p.NextTriggerEvent(f.NotEmpty())
				return
			}
			v, _ := f.TryRead()
			got = append(got, v)
			dates = append(dates, p.LocalTime())
		}
	}, f.NotEmpty())
	k.Thread("producer", func(p *sim.Process) {
		for i := 1; i <= 3; i++ {
			p.Inc(10 * sim.NS)
			f.Write(i)
		}
	})
	k.Run(sim.RunForever)
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("consumer got %v, want [1 2 3]", got)
	}
	// Data inserted at 10/20/30 ns; the method wakes at 10ns (delayed
	// NotEmpty) and drains what is externally visible then, re-arming
	// for the future-dated rest.
	want := []sim.Time{10 * sim.NS, 20 * sim.NS, 30 * sim.NS}
	for i := range want {
		if dates[i] != want[i] {
			t.Errorf("consume %d at %v, want %v", i, dates[i], want[i])
		}
	}
}
