package core_test

// Bulk-transfer equivalence tests: the burst fast paths of burst.go are
// pinned bit-identical to their scalar oracles (the per-word loops of the
// burst contract) across randomized depth/per/burst-size schedules,
// including bursts spanning full/empty boundaries, Try bursts, event
// subscribers and shard exchanges.

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/fifo"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/trace"
)

// burstOp is one step of a side's schedule: move up to n words with per of
// local time between words, through the blocking or the non-blocking API,
// then advance the local clock by gap.
type burstOp struct {
	n   int
	per sim.Time
	try bool
	gap sim.Time
}

// opsFrom derives a deterministic op schedule from fuzz bytes. Every
// second op is blocking so the schedule always makes progress.
func opsFrom(raw []byte) []burstOp {
	ops := make([]burstOp, 8)
	b := func(i int) byte {
		if len(raw) == 0 {
			return byte(3 * i)
		}
		return raw[i%len(raw)]
	}
	for i := range ops {
		ops[i] = burstOp{
			n:   int(b(3*i) % 9),                   // 0..8 words, 0 exercises empty bursts
			per: sim.Time(b(3*i+1)%4) * 5 * sim.NS, // 0, 5, 10, 15 ns
			try: i%2 == 1 && b(3*i+2)%2 == 1,       // blocking at least every other op
			gap: sim.Time(b(3*i+2)%3) * 7 * sim.NS, // decoupling gap between ops
		}
	}
	return ops
}

// burstSides drives nWords through channel ends using the schedule; bulk
// selects the burst fast paths or the scalar oracle loops. Every op logs
// the mover's local date and word count; a monitor probes the dated Size
// and two method processes log every NotEmpty/NotFull activation, so the
// trace pins values, dates, blocking behavior and the collapsed event
// notifications at once.
type burstEnd interface {
	Write(int)
	Read() int
	TryWrite(int) bool
	TryRead() (int, bool)
	IsEmpty() bool
	IsFull() bool
	WriteBurst([]int, sim.Time)
	ReadBurst([]int, sim.Time)
	TryWriteBurst([]int, sim.Time) int
	TryReadBurst([]int, sim.Time) int
	NotEmpty() *sim.Event
	NotFull() *sim.Event
	Size() int
}

// smartEnd adapts a SmartFIFO to burstEnd (both sides on one value).
type smartEnd struct{ f *core.SmartFIFO[int] }

func (s smartEnd) Write(v int)                           { s.f.Write(v) }
func (s smartEnd) Read() int                             { return s.f.Read() }
func (s smartEnd) TryWrite(v int) bool                   { return s.f.TryWrite(v) }
func (s smartEnd) TryRead() (int, bool)                  { return s.f.TryRead() }
func (s smartEnd) IsEmpty() bool                         { return s.f.IsEmpty() }
func (s smartEnd) IsFull() bool                          { return s.f.IsFull() }
func (s smartEnd) WriteBurst(v []int, per sim.Time)      { s.f.WriteBurst(v, per) }
func (s smartEnd) ReadBurst(d []int, per sim.Time)       { s.f.ReadBurst(d, per) }
func (s smartEnd) TryWriteBurst(v []int, p sim.Time) int { return s.f.TryWriteBurst(v, p) }
func (s smartEnd) TryReadBurst(d []int, p sim.Time) int  { return s.f.TryReadBurst(d, p) }
func (s smartEnd) NotEmpty() *sim.Event                  { return s.f.NotEmpty() }
func (s smartEnd) NotFull() *sim.Event                   { return s.f.NotFull() }
func (s smartEnd) Size() int                             { return s.f.Size() }

// scalarWriteBurst is the literal burst contract, used as the oracle.
func scalarWriteBurst(p *sim.Process, e burstEnd, vals []int, per sim.Time) {
	for i, v := range vals {
		if i > 0 {
			p.Inc(per)
		}
		e.Write(v)
	}
}

func scalarReadBurst(p *sim.Process, e burstEnd, dst []int, per sim.Time) {
	for i := range dst {
		if i > 0 {
			p.Inc(per)
		}
		dst[i] = e.Read()
	}
}

func scalarTryWriteBurst(p *sim.Process, e burstEnd, vals []int, per sim.Time) int {
	n := 0
	for i, v := range vals {
		if i > 0 {
			if e.IsFull() {
				break
			}
			p.Inc(per)
		}
		if !e.TryWrite(v) {
			break
		}
		n++
	}
	return n
}

func scalarTryReadBurst(p *sim.Process, e burstEnd, dst []int, per sim.Time) int {
	n := 0
	for i := range dst {
		if i > 0 {
			if e.IsEmpty() {
				break
			}
			p.Inc(per)
		}
		v, ok := e.TryRead()
		if !ok {
			break
		}
		dst[i] = v
		n++
	}
	return n
}

func driveBurst(k *sim.Kernel, w, r burstEnd, rec *trace.Recorder,
	nWords int, wOps, rOps []burstOp, bulk, probe bool) {
	k.Thread("writer", func(p *sim.Process) {
		buf := make([]int, 16)
		next := 0
		for i := 0; next < nWords; i++ {
			op := wOps[i%len(wOps)]
			m := min(op.n, nWords-next)
			if op.try && m > 0 {
				chunk := buf[:m]
				for j := range chunk {
					chunk[j] = next + j
				}
				var got int
				if bulk {
					got = w.TryWriteBurst(chunk, op.per)
				} else {
					got = scalarTryWriteBurst(p, w, chunk, op.per)
				}
				next += got
				rec.Logf(p, "tw %d", got)
			} else {
				if m == 0 {
					m = min(1, nWords-next) // a blocking op always moves ≥ 1 word
				}
				chunk := buf[:m]
				for j := range chunk {
					chunk[j] = next + j
				}
				if bulk {
					w.WriteBurst(chunk, op.per)
				} else {
					scalarWriteBurst(p, w, chunk, op.per)
				}
				next += m
				rec.Logf(p, "w %d", m)
			}
			p.Inc(op.gap)
		}
	})
	k.Thread("reader", func(p *sim.Process) {
		buf := make([]int, 16)
		got := 0
		for i := 0; got < nWords; i++ {
			op := rOps[i%len(rOps)]
			m := min(op.n, nWords-got)
			if op.try && m > 0 {
				chunk := buf[:m]
				var n int
				if bulk {
					n = r.TryReadBurst(chunk, op.per)
				} else {
					n = scalarTryReadBurst(p, r, chunk, op.per)
				}
				for _, v := range chunk[:n] {
					rec.Logf(p, "tr %d", v)
				}
				got += n
			} else {
				if m == 0 {
					m = min(1+op.n, nWords-got)
				}
				chunk := buf[:m]
				if bulk {
					r.ReadBurst(chunk, op.per)
				} else {
					scalarReadBurst(p, r, chunk, op.per)
				}
				for _, v := range chunk {
					rec.Logf(p, "r %d", v)
				}
				got += m
			}
			p.Inc(op.gap)
		}
	})
	if probe {
		// Event observers: any divergence in the collapsed
		// NotEmpty/NotFull notifications shows up as a dated activation
		// difference.
		k.MethodNoInit("obsEmpty", func(p *sim.Process) {
			rec.Logf(p, "notEmpty fired")
		}, r.NotEmpty())
		k.MethodNoInit("obsFull", func(p *sim.Process) {
			rec.Logf(p, "notFull fired")
		}, w.NotFull())
		// Dated monitor probes (§III-C) over the same window.
		k.Thread("monitor", func(p *sim.Process) {
			p.Wait(3 * sim.NS)
			for i := 0; i < 12; i++ {
				rec.Logf(p, "size %d", r.Size())
				p.Wait(25 * sim.NS)
			}
		})
	}
}

// runBurstSmart runs the schedule on a single-kernel SmartFIFO and returns
// the trace plus the channel and kernel counters.
func runBurstSmart(depth, nWords int, wOps, rOps []burstOp, bulk, probe bool) (*trace.Recorder, core.Stats, uint64) {
	k := sim.NewKernel("burst")
	f := core.NewSmart[int](k, "f", depth)
	rec := trace.NewRecorder()
	driveBurst(k, smartEnd{f}, smartEnd{f}, rec, nWords, wOps, rOps, bulk, probe)
	k.Run(sim.RunForever)
	k.Shutdown()
	return rec, f.Stats(), k.Stats().ContextSwitches
}

// TestQuickBurstMatchesScalarOracle is the headline bulk-transfer pin: for
// arbitrary depths, periods and burst schedules, the bulk paths produce
// exactly the scalar oracle's values, dates, stats, context switches and
// event notifications.
func TestQuickBurstMatchesScalarOracle(t *testing.T) {
	prop := func(depthRaw uint8, wRaw, rRaw []byte) bool {
		depth := int(depthRaw%64) + 1
		wOps, rOps := opsFrom(wRaw), opsFrom(rRaw)
		const nWords = 150
		refTrace, refStats, refSwitches := runBurstSmart(depth, nWords, wOps, rOps, false, true)
		gotTrace, gotStats, gotSwitches := runBurstSmart(depth, nWords, wOps, rOps, true, true)
		if d := trace.Diff(refTrace, gotTrace); d != "" {
			t.Logf("depth %d: bulk trace differs from scalar oracle:\n%s", depth, d)
			return false
		}
		if refStats != gotStats {
			t.Logf("depth %d: stats differ: scalar %+v, bulk %+v", depth, refStats, gotStats)
			return false
		}
		if refSwitches != gotSwitches {
			t.Logf("depth %d: context switches differ: scalar %d, bulk %d", depth, refSwitches, gotSwitches)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestBurstMatchesScalarOracleFixedDepths runs the oracle comparison at the
// pinned depths of the acceptance criteria (1, 4, 64) with a fixed
// boundary-heavy schedule, so a regression cannot hide behind fuzz luck.
func TestBurstMatchesScalarOracleFixedDepths(t *testing.T) {
	wOps := []burstOp{{8, 5 * sim.NS, false, 0}, {3, 0, true, 7 * sim.NS}, {5, 10 * sim.NS, false, 14 * sim.NS}, {1, sim.NS, true, 0}}
	rOps := []burstOp{{6, 15 * sim.NS, false, 7 * sim.NS}, {4, 0, true, 0}, {7, 5 * sim.NS, false, 0}, {2, sim.NS, true, 21 * sim.NS}}
	for _, depth := range []int{1, 4, 64} {
		refTrace, refStats, refSwitches := runBurstSmart(depth, 400, wOps, rOps, false, true)
		gotTrace, gotStats, gotSwitches := runBurstSmart(depth, 400, wOps, rOps, true, true)
		if d := trace.Diff(refTrace, gotTrace); d != "" {
			t.Errorf("depth %d: bulk trace differs from scalar oracle:\n%s", depth, d)
		}
		if refStats != gotStats {
			t.Errorf("depth %d: stats differ: scalar %+v, bulk %+v", depth, refStats, gotStats)
		}
		if refSwitches != gotSwitches {
			t.Errorf("depth %d: context switches differ: scalar %d, bulk %d", depth, refSwitches, gotSwitches)
		}
	}
}

// shardedEnds adapts a ShardedFIFO's two endpoints to burstEnd; the
// writer-side methods panic if used on the wrong end, which the driver
// never does.
type shardedWriterEnd struct{ w *core.ShardedWriter[int] }

func (s shardedWriterEnd) Write(v int)                           { s.w.Write(v) }
func (s shardedWriterEnd) Read() int                             { panic("reader op on writer end") }
func (s shardedWriterEnd) TryWrite(v int) bool                   { return s.w.TryWrite(v) }
func (s shardedWriterEnd) TryRead() (int, bool)                  { panic("reader op on writer end") }
func (s shardedWriterEnd) IsEmpty() bool                         { panic("reader op on writer end") }
func (s shardedWriterEnd) IsFull() bool                          { return s.w.IsFull() }
func (s shardedWriterEnd) WriteBurst(v []int, per sim.Time)      { s.w.WriteBurst(v, per) }
func (s shardedWriterEnd) ReadBurst(d []int, per sim.Time)       { panic("reader op on writer end") }
func (s shardedWriterEnd) TryWriteBurst(v []int, p sim.Time) int { return s.w.TryWriteBurst(v, p) }
func (s shardedWriterEnd) TryReadBurst(d []int, p sim.Time) int  { panic("reader op on writer end") }
func (s shardedWriterEnd) NotEmpty() *sim.Event                  { panic("reader op on writer end") }
func (s shardedWriterEnd) NotFull() *sim.Event                   { return s.w.NotFull() }
func (s shardedWriterEnd) Size() int                             { return s.w.Size() }

type shardedReaderEnd struct{ r *core.ShardedReader[int] }

func (s shardedReaderEnd) Write(v int)                           { panic("writer op on reader end") }
func (s shardedReaderEnd) Read() int                             { return s.r.Read() }
func (s shardedReaderEnd) TryWrite(v int) bool                   { panic("writer op on reader end") }
func (s shardedReaderEnd) TryRead() (int, bool)                  { return s.r.TryRead() }
func (s shardedReaderEnd) IsEmpty() bool                         { return s.r.IsEmpty() }
func (s shardedReaderEnd) IsFull() bool                          { panic("writer op on reader end") }
func (s shardedReaderEnd) WriteBurst(v []int, per sim.Time)      { panic("writer op on reader end") }
func (s shardedReaderEnd) ReadBurst(d []int, per sim.Time)       { s.r.ReadBurst(d, per) }
func (s shardedReaderEnd) TryWriteBurst(v []int, p sim.Time) int { panic("writer op on reader end") }
func (s shardedReaderEnd) TryReadBurst(d []int, p sim.Time) int  { return s.r.TryReadBurst(d, p) }
func (s shardedReaderEnd) NotEmpty() *sim.Event                  { return s.r.NotEmpty() }
func (s shardedReaderEnd) NotFull() *sim.Event                   { panic("writer op on reader end") }
func (s shardedReaderEnd) Size() int                             { return s.r.Size() }

// runBurstSharded runs the same schedule over a two-shard ShardedFIFO
// bridge under the conservative coordinator. Event observers live on the
// endpoint kernels; the monitor probe is omitted (a monitor is a
// same-kernel construct).
func runBurstSharded(depth, nWords int, wOps, rOps []burstOp, bulk bool) (*trace.Recorder, core.Stats) {
	kw := sim.NewKernel("burst.w")
	kr := sim.NewKernel("burst.r")
	f := core.NewSharded[int](kw, kr, "f", depth)
	rec := trace.NewRecorder()
	// Split the driver across the two kernels by registering writer and
	// reader separately.
	w, r := shardedWriterEnd{f.Writer()}, shardedReaderEnd{f.Reader()}
	kw.Thread("writer", func(p *sim.Process) {
		buf := make([]int, 16)
		next := 0
		for i := 0; next < nWords; i++ {
			op := wOps[i%len(wOps)]
			m := min(op.n, nWords-next)
			if op.try && m > 0 {
				chunk := buf[:m]
				for j := range chunk {
					chunk[j] = next + j
				}
				var got int
				if bulk {
					got = w.TryWriteBurst(chunk, op.per)
				} else {
					got = scalarTryWriteBurst(p, w, chunk, op.per)
				}
				next += got
				rec.Logf(p, "tw %d", got)
			} else {
				if m == 0 {
					m = min(1, nWords-next) // a blocking op always moves ≥ 1 word
				}
				chunk := buf[:m]
				for j := range chunk {
					chunk[j] = next + j
				}
				if bulk {
					w.WriteBurst(chunk, op.per)
				} else {
					scalarWriteBurst(p, w, chunk, op.per)
				}
				next += m
				rec.Logf(p, "w %d", m)
			}
			p.Inc(op.gap)
		}
	})
	kr.Thread("reader", func(p *sim.Process) {
		buf := make([]int, 16)
		got := 0
		for i := 0; got < nWords; i++ {
			op := rOps[i%len(rOps)]
			m := min(op.n, nWords-got)
			if op.try && m > 0 {
				chunk := buf[:m]
				var n int
				if bulk {
					n = r.TryReadBurst(chunk, op.per)
				} else {
					n = scalarTryReadBurst(p, r, chunk, op.per)
				}
				for _, v := range chunk[:n] {
					rec.Logf(p, "tr %d", v)
				}
				got += n
			} else {
				if m == 0 {
					m = min(1+op.n, nWords-got)
				}
				chunk := buf[:m]
				if bulk {
					r.ReadBurst(chunk, op.per)
				} else {
					scalarReadBurst(p, r, chunk, op.per)
				}
				for _, v := range chunk {
					rec.Logf(p, "r %d", v)
				}
				got += m
			}
			p.Inc(op.gap)
		}
	})
	c := par.NewCoordinator()
	c.AddShard(kw)
	c.AddShard(kr)
	c.AddBridge(f)
	c.Run(sim.RunForever)
	c.Shutdown()
	return rec, f.Stats()
}

// TestQuickShardedBurstMatchesScalar pins the bridge endpoints' bulk paths
// against their scalar loops across shard exchanges: same dated trace, same
// channel stats.
func TestQuickShardedBurstMatchesScalar(t *testing.T) {
	prop := func(depthRaw uint8, wRaw, rRaw []byte) bool {
		depth := int(depthRaw%16) + 1
		wOps, rOps := opsFrom(wRaw), opsFrom(rRaw)
		const nWords = 120
		refTrace, refStats := runBurstSharded(depth, nWords, wOps, rOps, false)
		gotTrace, gotStats := runBurstSharded(depth, nWords, wOps, rOps, true)
		if d := trace.Diff(refTrace, gotTrace); d != "" {
			t.Logf("depth %d: sharded bulk trace differs from scalar:\n%s", depth, d)
			return false
		}
		if refStats != gotStats {
			t.Logf("depth %d: sharded stats differ: scalar %+v, bulk %+v", depth, refStats, gotStats)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestShardedBurstMatchesSingleKernel extends TestShardedFIFOMatchesSmart
// to bursts: a two-shard bulk run produces exactly the dates of a
// one-kernel bulk run, which the oracle tests above tie back to the scalar
// word-at-a-time semantics.
func TestShardedBurstMatchesSingleKernel(t *testing.T) {
	wOps := []burstOp{{7, 4 * sim.NS, false, 3 * sim.NS}, {2, 0, true, 0}, {8, 9 * sim.NS, false, 0}}
	rOps := []burstOp{{5, 6 * sim.NS, false, 0}, {3, 2 * sim.NS, true, 11 * sim.NS}, {6, 0, false, 0}}
	for _, depth := range []int{1, 4, 64} {
		refTrace, refStats, _ := runBurstSmart(depth, 300, wOps, rOps, true, false)
		gotTrace, gotStats := runBurstSharded(depth, 300, wOps, rOps, true)
		if d := trace.Diff(refTrace, gotTrace); d != "" {
			t.Errorf("depth %d: sharded bulk trace differs from single-kernel bulk:\n%s", depth, d)
		}
		// The bridge parks more often than a same-kernel FIFO (deliveries
		// lag to exchanges), so only the access counters are comparable —
		// the dates above are the pinned property.
		if refStats.Writes != gotStats.Writes || refStats.Reads != gotStats.Reads {
			t.Errorf("depth %d: access counts differ: single %+v, sharded %+v", depth, refStats, gotStats)
		}
	}
}

// TestBurstDualModeEquivalence is the §IV-A oracle applied to bursts: a
// bursting producer/consumer pair in decoupled mode (bulk Smart-FIFO
// paths) against the non-decoupled reference (regular FIFO, Wait per
// word) — identical dated traces at every depth.
func TestBurstDualModeEquivalence(t *testing.T) {
	for _, depth := range []int{1, 4, 64} {
		build := func(e *Env) {
			f := e.NewFIFO("fifo", depth)
			const n, chunk = 240, 8
			per := 5 * sim.NS
			e.K.Thread("writer", func(p *sim.Process) {
				buf := make([]int, chunk)
				for i := 0; i < n; {
					m := min(chunk, n-i)
					for j := 0; j < m; j++ {
						buf[j] = i + j
					}
					if e.Mode == ModeSmart {
						f.(*core.SmartFIFO[int]).WriteBurst(buf[:m], sim.Time(per))
					} else {
						for j := 0; j < m; j++ {
							if j > 0 {
								e.Delay(p, sim.Time(per))
							}
							f.Write(buf[j])
						}
					}
					e.Logf(p, "wrote %d", m)
					e.Delay(p, sim.Time(per))
					i += m
				}
			})
			e.K.Thread("reader", func(p *sim.Process) {
				buf := make([]int, chunk)
				for i := 0; i < n; {
					m := min(chunk, n-i)
					if e.Mode == ModeSmart {
						f.(*core.SmartFIFO[int]).ReadBurst(buf[:m], 3*sim.NS)
					} else {
						for j := 0; j < m; j++ {
							if j > 0 {
								e.Delay(p, 3*sim.NS)
							}
							buf[j] = f.Read()
						}
					}
					for _, v := range buf[:m] {
						e.Logf(p, "read %d", v)
					}
					e.Delay(p, 3*sim.NS)
					i += m
				}
			})
		}
		checkDualMode(t, build, int64(depth))
	}
}

// TestEmptyBursts pins the degenerate case: zero-length bursts move
// nothing, advance nothing and notify nothing.
func TestEmptyBursts(t *testing.T) {
	k := sim.NewKernel("empty")
	f := core.NewSmart[int](k, "f", 4)
	k.Thread("p", func(p *sim.Process) {
		p.Inc(5 * sim.NS)
		before := p.LocalTime()
		f.WriteBurst(nil, sim.NS)
		f.ReadBurst(nil, sim.NS)
		if n := f.TryWriteBurst(nil, sim.NS); n != 0 {
			t.Errorf("TryWriteBurst(nil) = %d, want 0", n)
		}
		if n := f.TryReadBurst(nil, sim.NS); n != 0 {
			t.Errorf("TryReadBurst(nil) = %d, want 0", n)
		}
		if p.LocalTime() != before {
			t.Errorf("empty bursts moved the local clock: %v -> %v", before, p.LocalTime())
		}
	})
	k.Run(sim.RunForever)
	k.Shutdown()
	if s := f.Stats(); s.Writes != 0 || s.Reads != 0 {
		t.Errorf("empty bursts counted accesses: %+v", s)
	}
	if f.NotEmpty().HasPending() || f.NotFull().HasPending() {
		t.Error("empty bursts left pending notifications")
	}
}

// TestTryBurstFault keeps the mutation-testing contract on the new API
// surface: with a fault injected, the burst paths fall back to the literal
// scalar loops, so every fault stays observable through bursts too.
func TestBurstFaultFallback(t *testing.T) {
	for _, ft := range []core.Fault{core.FaultNoReaderAdvance, core.FaultInsertDateNow} {
		k := sim.NewKernel(fmt.Sprintf("fault-%v", ft))
		f := core.NewSmart[int](k, "f", 4)
		f.SetFault(ft)
		var faulty, clean []sim.Time
		k.Thread("writer", func(p *sim.Process) {
			buf := []int{1, 2, 3, 4, 5, 6}
			f.WriteBurst(buf, 5*sim.NS)
		})
		k.Thread("reader", func(p *sim.Process) {
			buf := make([]int, 6)
			f.ReadBurst(buf, 2*sim.NS)
			faulty = append(faulty, p.LocalTime())
		})
		k.Run(sim.RunForever)
		k.Shutdown()

		k2 := sim.NewKernel("clean")
		f2 := core.NewSmart[int](k2, "f", 4)
		k2.Thread("writer", func(p *sim.Process) {
			buf := []int{1, 2, 3, 4, 5, 6}
			f2.WriteBurst(buf, 5*sim.NS)
		})
		k2.Thread("reader", func(p *sim.Process) {
			buf := make([]int, 6)
			f2.ReadBurst(buf, 2*sim.NS)
			clean = append(clean, p.LocalTime())
		})
		k2.Run(sim.RunForever)
		k2.Shutdown()
		if fmt.Sprint(faulty) == fmt.Sprint(clean) {
			t.Errorf("fault %v invisible through the burst API (dates %v)", ft, faulty)
		}
	}
}

// TestBurstNegativePerPanics pins the contract's negative-per clause on
// every channel family the fifo helpers serve, native path or not: a
// negative per panics inside Inc exactly like the scalar loop. A one-word
// burst never calls Inc, so it transfers its word; a longer one transfers
// word 0 and then panics at word 1's Inc, which Run re-raises.
func TestBurstNegativePerPanics(t *testing.T) {
	const per = -sim.NS
	type channel struct {
		w     fifo.Writer[int]
		r     fifo.Reader[int]
		flush func() bool // moves a self-bridge's staged words; nil otherwise
	}
	families := []struct {
		name string
		mk   func(k *sim.Kernel) channel
	}{
		{"SmartFIFO", func(k *sim.Kernel) channel {
			f := core.NewSmart[int](k, "f", 4)
			return channel{w: f, r: f}
		}},
		{"ShardedFIFO", func(k *sim.Kernel) channel {
			f := core.NewSharded[int](k, k, "f", 4)
			return channel{w: f.Writer(), r: f.Reader(), flush: f.Flush}
		}},
		{"FIFO", func(k *sim.Kernel) channel {
			f := fifo.New[int](k, "f", 4)
			return channel{w: f, r: f}
		}},
		{"SyncFIFO", func(k *sim.Kernel) channel {
			f := fifo.NewSync[int](k, "f", 4)
			return channel{w: f, r: f}
		}},
	}
	// Each helper moves buf through the channel; write reports whether it
	// is a write-side helper (the channel starts empty) or a read-side one
	// (the channel starts with 1, 2, 3).
	helpers := []struct {
		name  string
		write bool
		run   func(p *sim.Process, c channel, buf []int)
	}{
		{"WriteBurst", true, func(p *sim.Process, c channel, buf []int) { fifo.WriteBurst(p, c.w, buf, per) }},
		{"TryWriteBurst", true, func(p *sim.Process, c channel, buf []int) { fifo.TryWriteBurst(p, c.w, buf, per) }},
		{"ReadBurst", false, func(p *sim.Process, c channel, buf []int) { fifo.ReadBurst(p, c.r, buf, per) }},
		{"TryReadBurst", false, func(p *sim.Process, c channel, buf []int) { fifo.TryReadBurst(p, c.r, buf, per) }},
	}
	const wantPanic = `sim: process "burst" panicked: sim: burst: Inc with negative duration -1ns`
	for _, fam := range families {
		for _, h := range helpers {
			for _, n := range []int{1, 3} {
				t.Run(fmt.Sprintf("%s/%s/%d", fam.name, h.name, n), func(t *testing.T) {
					k := sim.NewKernel("neg")
					defer k.Shutdown()
					c := fam.mk(k)
					buf := make([]int, n)
					if h.write {
						for i := range buf {
							buf[i] = i + 1
						}
					} else {
						k.Thread("fill", func(*sim.Process) {
							for v := 1; v <= 3; v++ {
								c.w.Write(v)
							}
						})
						k.Run(sim.RunForever)
						if c.flush != nil {
							c.flush()
						}
					}
					size := -1
					k.Thread("burst", func(p *sim.Process) {
						if h.write {
							// Observed on the way out, panic or not.
							defer func() { size = c.w.(interface{ Size() int }).Size() }()
						}
						h.run(p, c, buf)
					})
					var got any
					func() {
						defer func() { got = recover() }()
						k.Run(sim.RunForever)
					}()
					switch {
					case n == 1 && got != nil:
						t.Errorf("1-word burst panicked: %v", got)
					case n > 1 && got != wantPanic:
						t.Errorf("%d-word burst: Run panicked with %v, want %q", n, got, wantPanic)
					}
					if h.write && size != 1 {
						t.Errorf("writer sees %d words in the channel, want word 0 only", size)
					}
					if !h.write && (buf[0] != 1 || slices.ContainsFunc(buf[1:], func(v int) bool { return v != 0 })) {
						t.Errorf("read %v, want word 0 (1) only", buf)
					}
				})
			}
		}
	}
}
