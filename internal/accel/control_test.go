package accel_test

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/sim"
)

// TestDatedStatus pins when a completion becomes visible through the
// status and jobs-done registers. A generator with a never-full output
// runs two 4-word jobs at 10 ns a word from date 0 without blocking, so
// both completions (40 ns and 80 ns) are recorded while the kernel is
// still at 0; a reader then samples the registers at the dates below. A
// completion shows only once the kernel's date reaches it, whatever the
// reader's own local date.
func TestDatedStatus(t *testing.T) {
	rows := []struct {
		at, ahead sim.Time // kernel date of the read, reader's lead on it
		status    uint32
		done      uint32
	}{
		{at: 10 * sim.NS, status: 1, done: 0},                     // both jobs recorded, neither due
		{at: 30 * sim.NS, ahead: 20 * sim.NS, status: 1, done: 0}, // reader's local date 50 ns is past the 40 ns stamp
		{at: 39 * sim.NS, status: 1, done: 0},                     // just before the first completion
		{at: 40 * sim.NS, status: 1, done: 1},                     // at the first, the second still ahead
		{at: 41 * sim.NS, status: 1, done: 1},                     // after the first
		{at: 60 * sim.NS, ahead: 30 * sim.NS, status: 1, done: 1}, // reader past the second stamp, kernel not
		{at: 79 * sim.NS, status: 1, done: 1},                     // just before the second
		{at: 80 * sim.NS, status: 0, done: 2},                     // at the second
		{at: 100 * sim.NS, ahead: 5 * sim.NS, status: 0, done: 2}, // after both
	}

	k := sim.NewKernel("t")
	ch := core.NewSmart[uint32](k, "ch", 64)
	gen := accel.New(k, "gen", accel.Config{Kind: accel.Generator, Out: ch, WordLat: 10 * sim.NS, Seed: 1})
	access := func(p *sim.Process, cmd bus.Cmd, idx int, v uint32) uint32 {
		tx := bus.Transaction{Cmd: cmd, Addr: uint32(idx), Data: []uint32{v}}
		gen.Regs().BTransport(p, &tx)
		return tx.Data[0]
	}
	k.Thread("reader", func(p *sim.Process) {
		access(p, bus.Write, accel.RegWords, 4)
		access(p, bus.Write, accel.RegCtrl, 1)
		access(p, bus.Write, accel.RegCtrl, 1)
		for idx, tt := range rows {
			p.SetLocalDate(k.Now()) // drop the previous row's lead
			p.Wait(tt.at - k.Now())
			p.Inc(tt.ahead)
			if n := len(gen.JobDates()); n != 2 {
				t.Errorf("%d. %d completions recorded at %v, want both", idx, n, k.Now())
			}
			if got := access(p, bus.Read, accel.RegStatus, 0); got != tt.status {
				t.Errorf("%d. status at %v (local %v) = %d, want %d", idx, k.Now(), p.LocalTime(), got, tt.status)
			}
			if got := access(p, bus.Read, accel.RegJobsDone, 0); got != tt.done {
				t.Errorf("%d. jobs done at %v (local %v) = %d, want %d", idx, k.Now(), p.LocalTime(), got, tt.done)
			}
		}
	})
	k.Run(sim.RunForever)
	k.Shutdown()
	if got, want := gen.JobDates(), []sim.Time{40 * sim.NS, 80 * sim.NS}; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("job dates %v, want %v", got, want)
	}
}
