package core_test

// The TLM-2.0 payload event queue (tlm_utils::peq_with_get) is the prior
// art the paper says the Smart FIFO generalizes: "the Smart FIFO
// associates a time stamp with each data item ... that idea is already
// implemented in the TLM peq_with_get utility class. However, because we
// model hardware FIFOs that are bounded, writing may be blocking too"
// (§III-A). Each test below is one peq_with_get property, checked on the
// Smart FIFO: a payload becomes visible at its date, a decoupled producer
// stamps it with its local date, a decoupled consumer is lifted to it, it
// is not ready before it, and a method consumer sensitive to the ready
// event fires at it.

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/sim"
)

// TestPayloadsDeliveredInDateOrder: a decoupled writer inserts at local
// dates 10/20/30 ns while the global date is still 0; a synchronized
// reader using the §III-B pattern (TryRead, else wait on NotEmpty) gets
// the data in write order, each at its insertion date.
func TestPayloadsDeliveredInDateOrder(t *testing.T) {
	k := sim.NewKernel("t")
	f := core.NewSmart[string](k, "f", 4)
	var got []string
	k.Thread("producer", func(p *sim.Process) {
		for _, v := range []string{"a", "b", "c"} {
			p.Inc(10 * sim.NS)
			f.Write(v)
		}
	})
	k.Thread("consumer", func(p *sim.Process) {
		for len(got) < 3 {
			v, ok := f.TryRead()
			if !ok {
				p.WaitEvent(f.NotEmpty())
				continue
			}
			got = append(got, fmt.Sprintf("%s@%v", v, k.Now()))
		}
	})
	k.Run(sim.RunForever)
	want := "[a@10ns b@20ns c@30ns]"
	if fmt.Sprint(got) != want {
		t.Errorf("got %v, want %v", got, want)
	}
}

// TestDecoupledProducerDates: a producer far ahead in local time writes
// every datum while the global date is 0; the insertion dates follow its
// local clock, and a blocking reader's clock lands on exactly those dates.
func TestDecoupledProducerDates(t *testing.T) {
	k := sim.NewKernel("t")
	f := core.NewSmart[int](k, "f", 4)
	var globalAtWrite, dates []sim.Time
	k.Thread("producer", func(p *sim.Process) {
		for i := 0; i < 3; i++ {
			p.Inc(50 * sim.NS)
			f.Write(i)
			globalAtWrite = append(globalAtWrite, k.Now())
		}
	})
	k.Thread("consumer", func(p *sim.Process) {
		for i := 0; i < 3; i++ {
			f.Read()
			dates = append(dates, p.LocalTime())
		}
	})
	k.Run(sim.RunForever)
	want := []sim.Time{50 * sim.NS, 100 * sim.NS, 150 * sim.NS}
	if fmt.Sprint(dates) != fmt.Sprint(want) {
		t.Errorf("read dates %v, want %v", dates, want)
	}
	if fmt.Sprint(globalAtWrite) != fmt.Sprint([]sim.Time{0, 0, 0}) {
		t.Errorf("global dates at the writes %v, want all 0 (producer decoupled)", globalAtWrite)
	}
	if s := f.Stats(); s.WriterBlocks != 0 {
		t.Errorf("WriterBlocks = %d, want 0", s.WriterBlocks)
	}
}

// TestDecoupledConsumerAdvances: a decoupled reader behind a datum's
// insertion date is lifted to it without a context switch; one already
// past it keeps its local date.
func TestDecoupledConsumerAdvances(t *testing.T) {
	k := sim.NewKernel("t")
	f := core.NewSmart[int](k, "f", 4)
	k.Thread("producer", func(p *sim.Process) {
		p.Inc(40 * sim.NS)
		f.Write(1)
		p.Inc(10 * sim.NS)
		f.Write(2)
	})
	k.Thread("consumer", func(p *sim.Process) {
		p.Wait(0) // let the producer insert both
		p.Inc(10 * sim.NS)
		if v := f.Read(); v != 1 {
			t.Errorf("Read = %d, want 1", v)
		}
		if p.LocalTime() != 40*sim.NS {
			t.Errorf("local %v, want 40ns (lifted to the insertion date)", p.LocalTime())
		}
		p.Inc(60 * sim.NS)
		if v := f.Read(); v != 2 {
			t.Errorf("Read = %d, want 2", v)
		}
		if p.LocalTime() != 100*sim.NS {
			t.Errorf("local %v, want unchanged 100ns (datum older)", p.LocalTime())
		}
	})
	k.Run(sim.RunForever)
	if s := f.Stats(); s.ReaderAdvances != 1 || s.ReaderBlocks != 0 {
		t.Errorf("ReaderAdvances=%d ReaderBlocks=%d, want 1 and 0", s.ReaderAdvances, s.ReaderBlocks)
	}
}

// TestGetNotReady: TryRead and IsEmpty report nothing to read on an empty
// FIFO and on one whose only datum is internally present but inserted
// after the caller's date (§III-B); at the insertion date it is ready.
func TestGetNotReady(t *testing.T) {
	k := sim.NewKernel("t")
	f := core.NewSmart[int](k, "f", 4)
	k.Thread("producer", func(p *sim.Process) {
		p.Wait(sim.NS)
		p.Inc(9 * sim.NS)
		f.Write(1) // inserted at 10ns, global date 1ns
	})
	k.Thread("consumer", func(p *sim.Process) {
		if _, ok := f.TryRead(); ok {
			t.Error("TryRead on an empty FIFO succeeded")
		}
		p.Wait(5 * sim.NS)
		if f.InternalSize() != 1 {
			t.Errorf("InternalSize = %d, want 1", f.InternalSize())
		}
		if !f.IsEmpty() {
			t.Error("IsEmpty false before the insertion date")
		}
		if _, ok := f.TryRead(); ok {
			t.Error("TryRead before the insertion date succeeded")
		}
		p.Wait(5 * sim.NS)
		if f.IsEmpty() {
			t.Error("IsEmpty true at the insertion date")
		}
		if v, ok := f.TryRead(); !ok || v != 1 {
			t.Errorf("TryRead at the insertion date = %d,%v", v, ok)
		}
	})
	k.Run(sim.RunForever)
}

// TestMethodConsumer: the canonical SC_METHOD pattern, statically
// sensitive to NotEmpty, fires at each insertion date of a decoupled
// producer that wrote everything at global date 0.
func TestMethodConsumer(t *testing.T) {
	k := sim.NewKernel("t")
	f := core.NewSmart[int](k, "f", 4)
	var got []sim.Time
	k.MethodNoInit("consumer", func(p *sim.Process) {
		for {
			if _, ok := f.TryRead(); !ok {
				return // re-armed by static sensitivity
			}
			got = append(got, k.Now())
		}
	}, f.NotEmpty())
	k.Thread("producer", func(p *sim.Process) {
		for i := 0; i < 3; i++ {
			p.Inc(15 * sim.NS)
			f.Write(i)
		}
	})
	k.Run(sim.RunForever)
	want := []sim.Time{15 * sim.NS, 30 * sim.NS, 45 * sim.NS}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

// TestQuickDateOrder: whatever the writer's gaps and the FIFO depth
// (bounded, so the writer may block), a reader with no delays of its own
// reads every datum in write order at exactly the date it was inserted.
func TestQuickDateOrder(t *testing.T) {
	prop := func(gaps []uint16, depth uint8) bool {
		if len(gaps) > 50 {
			gaps = gaps[:50]
		}
		k := sim.NewKernel("q")
		f := core.NewSmart[int](k, "f", int(depth%8)+1)
		var inserted, read []sim.Time
		inOrder := true
		k.Thread("producer", func(p *sim.Process) {
			for i, g := range gaps {
				p.Inc(sim.Time(g) * sim.NS)
				f.Write(i)
				inserted = append(inserted, p.LocalTime())
			}
		})
		k.Thread("consumer", func(p *sim.Process) {
			for i := range gaps {
				if f.Read() != i {
					inOrder = false
				}
				read = append(read, p.LocalTime())
			}
		})
		k.Run(sim.RunForever)
		k.Shutdown()
		return inOrder && len(read) == len(gaps) && fmt.Sprint(read) == fmt.Sprint(inserted)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
