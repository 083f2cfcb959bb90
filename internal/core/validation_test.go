package core_test

// This file implements the paper's validation methodology (§IV-A): every
// scenario is executed in two modes — (1) regular FIFOs and no temporal
// decoupling, (2) Smart FIFOs and temporal decoupling, with the same seed —
// and both runs record traces stamped with the local date of the emitting
// process. The test passes iff the traces are identical after reordering by
// date: behavior and timing must be unchanged, only the schedule may
// differ.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fifo"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Mode selects the implementation under test.
type Mode int

const (
	// ModeReference is a regular FIFO with non-decoupled processes:
	// the paper's ground truth.
	ModeReference Mode = iota
	// ModeSmart is the Smart FIFO with temporally decoupled processes.
	ModeSmart
)

func (m Mode) String() string {
	if m == ModeReference {
		return "reference"
	}
	return "smart"
}

// Env gives scenarios a mode-independent vocabulary: NewFIFO picks the
// channel implementation and Delay picks wait-vs-inc.
type Env struct {
	K    *sim.Kernel
	Rec  *trace.Recorder
	Mode Mode
	Rand *rand.Rand
	// fault to inject into every Smart FIFO the scenario creates.
	fault core.Fault
	// policy is the blocking policy for every Smart FIFO created.
	policy core.BlockPolicy
}

// NewFIFO creates the channel appropriate for the mode.
func (e *Env) NewFIFO(name string, depth int) fifo.Channel[int] {
	if e.Mode == ModeReference {
		return fifo.New[int](e.K, name, depth)
	}
	f := core.NewSmart[int](e.K, name, depth)
	f.SetFault(e.fault)
	f.SetBlockPolicy(e.policy)
	return f
}

// Delay annotates d of computation time on p: a context-switching Wait in
// reference mode, a local Inc under decoupling.
func (e *Env) Delay(p *sim.Process, d sim.Time) {
	if e.Mode == ModeReference {
		p.Wait(d)
	} else {
		p.Inc(d)
	}
}

// Logf records a dated trace line for p.
func (e *Env) Logf(p *sim.Process, format string, args ...any) {
	e.Rec.Logf(p, format, args...)
}

// Scenario builds a model in the given environment. It runs with the same
// seed in both modes.
type Scenario func(e *Env)

// runMode executes scenario s in mode m and returns its trace.
func runMode(s Scenario, m Mode, seed int64, fault core.Fault) *trace.Recorder {
	e := &Env{
		K:     sim.NewKernel(m.String()),
		Rec:   trace.NewRecorder(),
		Mode:  m,
		Rand:  rand.New(rand.NewSource(seed)),
		fault: fault,
	}
	s(e)
	e.K.Run(sim.RunForever)
	e.K.Shutdown()
	return e.Rec
}

// checkDualMode asserts reference and smart traces are identical after
// date reordering.
func checkDualMode(t *testing.T, s Scenario, seed int64) {
	t.Helper()
	ref := runMode(s, ModeReference, seed, core.FaultNone)
	smart := runMode(s, ModeSmart, seed, core.FaultNone)
	if d := trace.Diff(ref, smart); d != "" {
		t.Errorf("traces differ (seed %d):\n%s", seed, d)
	}
	if ref.Len() == 0 {
		t.Error("scenario recorded no trace entries: vacuous test")
	}
}

// scenarioFig1 is the paper's Fig. 1 example with parameterized depth and
// periods.
func scenarioFig1(depth, n int, wPeriod, rPeriod sim.Time) Scenario {
	return func(e *Env) {
		f := e.NewFIFO("fifo", depth)
		e.K.Thread("writer", func(p *sim.Process) {
			for i := 1; i <= n; i++ {
				f.Write(i)
				e.Logf(p, "wrote %d", i)
				e.Delay(p, wPeriod)
			}
			e.Logf(p, "writer done")
		})
		e.K.Thread("reader", func(p *sim.Process) {
			for i := 1; i <= n; i++ {
				v := f.Read()
				e.Logf(p, "read %d", v)
				e.Delay(p, rPeriod)
			}
			e.Logf(p, "reader done")
		})
	}
}

func TestDualModeFig1(t *testing.T) {
	for _, depth := range []int{1, 2, 3, 8} {
		for _, periods := range [][2]sim.Time{
			{20 * sim.NS, 15 * sim.NS}, // the paper's numbers
			{15 * sim.NS, 20 * sim.NS}, // slow consumer
			{10 * sim.NS, 10 * sim.NS}, // balanced
			{0, 25 * sim.NS},           // infinitely fast producer
			{25 * sim.NS, 0},           // infinitely fast consumer
		} {
			name := fmt.Sprintf("depth%d_w%v_r%v", depth, periods[0], periods[1])
			t.Run(name, func(t *testing.T) {
				checkDualMode(t, scenarioFig1(depth, 12, periods[0], periods[1]), 1)
			})
		}
	}
}

// TestScalarRingWrapBoundaries pins the scalar ring's wrap-around at its
// boundaries: word counts one short of the depth, at it, one past it, and
// at and past two laps, with rates that make the writer block and advance
// to freeing dates (fast writer) or the reader block and advance to
// insertion dates (fast reader). The scalar Smart FIFO's trace must match
// the dual-mode reference, and its trace, Stats and context switches must
// match those of the bulk path (burst.go), which wraps its runs by its own
// code.
func TestScalarRingWrapBoundaries(t *testing.T) {
	rates := []struct {
		name string
		w, r sim.Time
	}{
		{"fast-writer", sim.NS, 7 * sim.NS},
		{"fast-reader", 7 * sim.NS, sim.NS},
	}
	for _, d := range []int{1, 2, 3, 7, 1024} {
		for _, n := range slices.Compact([]int{d - 1, d, d + 1, 2 * d, 2*d + 1}) {
			for _, rt := range rates {
				t.Run(fmt.Sprintf("depth%d_n%d_%s", d, n, rt.name), func(t *testing.T) {
					checkDualMode(t, scenarioFig1(d, n, rt.w, rt.r), 1)

					// One word-sized period between words, in chunks of
					// up to 16 (driveBurst's buffer).
					wOps := []burstOp{{n: 16, per: rt.w, gap: rt.w}}
					rOps := []burstOp{{n: 16, per: rt.r, gap: rt.r}}
					scalarTrace, scalar, scalarSwitches := runBurstSmart(d, n, wOps, rOps, false, true)
					bulkTrace, bulk, bulkSwitches := runBurstSmart(d, n, wOps, rOps, true, true)
					if diff := trace.Diff(scalarTrace, bulkTrace); diff != "" {
						t.Errorf("scalar trace differs from the bulk path:\n%s", diff)
					}
					if scalar != bulk {
						t.Errorf("stats: scalar %+v, bulk %+v", scalar, bulk)
					}
					if scalarSwitches != bulkSwitches {
						t.Errorf("context switches: scalar %d, bulk %d", scalarSwitches, bulkSwitches)
					}
					if scalar.Writes != uint64(n) || scalar.Reads != uint64(n) {
						t.Errorf("stats %+v: want %d writes and reads", scalar, n)
					}
					// The fast side blocks once the words outnumber the
					// cells, and advances once they lap the ring twice.
					blocks, advances := scalar.ReaderBlocks, scalar.ReaderAdvances
					if rt.w < rt.r {
						blocks, advances = scalar.WriterBlocks, scalar.WriterAdvances
					}
					if n > d && blocks == 0 {
						t.Errorf("stats %+v: the %s never blocked", scalar, rt.name)
					}
					if n >= 2*d && d > 1 && advances == 0 {
						t.Errorf("stats %+v: the %s never advanced", scalar, rt.name)
					}
				})
			}
		}
	}
}

// scenarioPipeline is the Fig. 5 system at small scale: source →
// transmitter → sink over two FIFOs.
func scenarioPipeline(depth, blocks, words int, sPer, tPer, kPer sim.Time) Scenario {
	return func(e *Env) {
		f1 := e.NewFIFO("f1", depth)
		f2 := e.NewFIFO("f2", depth)
		e.K.Thread("source", func(p *sim.Process) {
			for b := 0; b < blocks; b++ {
				for w := 0; w < words; w++ {
					f1.Write(b*words + w)
					e.Delay(p, sPer)
				}
				e.Logf(p, "block %d sent", b)
			}
		})
		e.K.Thread("transmitter", func(p *sim.Process) {
			for i := 0; i < blocks*words; i++ {
				v := f1.Read()
				e.Delay(p, tPer)
				f2.Write(v * 2)
			}
			e.Logf(p, "transmitted all")
		})
		e.K.Thread("sink", func(p *sim.Process) {
			sum := 0
			for i := 0; i < blocks*words; i++ {
				sum += f2.Read()
				e.Delay(p, kPer)
			}
			e.Logf(p, "sum %d", sum)
		})
	}
}

func TestDualModePipeline(t *testing.T) {
	for _, depth := range []int{1, 4, 16} {
		for _, rates := range [][3]sim.Time{
			{10 * sim.NS, 10 * sim.NS, 10 * sim.NS},
			{5 * sim.NS, 20 * sim.NS, 10 * sim.NS}, // transmitter-bound
			{20 * sim.NS, 5 * sim.NS, 10 * sim.NS}, // source-bound
			{10 * sim.NS, 5 * sim.NS, 20 * sim.NS}, // sink-bound
		} {
			name := fmt.Sprintf("depth%d_%v_%v_%v", depth, rates[0], rates[1], rates[2])
			t.Run(name, func(t *testing.T) {
				checkDualMode(t, scenarioPipeline(depth, 4, 8, rates[0], rates[1], rates[2]), 1)
			})
		}
	}
}

// scenarioMonitor streams data while a monitor process polls Size at dates
// chosen to avoid same-date races with the streaming processes (the paper
// excludes scheduler-dependent programs from the suite). Producers act at
// multiples of 10ns, the monitor at 5ns offsets.
func scenarioMonitor(depth int) Scenario {
	return func(e *Env) {
		f := e.NewFIFO("fifo", depth)
		const n = 30
		e.K.Thread("writer", func(p *sim.Process) {
			for i := 0; i < n; i++ {
				f.Write(i)
				e.Delay(p, 10*sim.NS)
			}
		})
		e.K.Thread("reader", func(p *sim.Process) {
			for i := 0; i < n; i++ {
				f.Read()
				e.Delay(p, 30*sim.NS)
			}
		})
		e.K.Thread("monitor", func(p *sim.Process) {
			// The monitor is never decoupled (it models embedded
			// software polling a status register at a low rate).
			p.Wait(5 * sim.NS)
			for i := 0; i < 20; i++ {
				e.Logf(p, "size %d", f.Size())
				p.Wait(50 * sim.NS)
			}
		})
	}
}

func TestDualModeMonitor(t *testing.T) {
	for _, depth := range []int{1, 2, 5, 32} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			checkDualMode(t, scenarioMonitor(depth), 1)
		})
	}
}

// scenarioEventConsumer uses the §III-B event-driven consumption pattern
// from a thread: wait on NotEmpty while externally empty.
func scenarioEventConsumer(depth int) Scenario {
	return func(e *Env) {
		f := e.NewFIFO("fifo", depth)
		const n = 15
		e.K.Thread("producer", func(p *sim.Process) {
			for i := 0; i < n; i++ {
				e.Delay(p, sim.Time(7+3*(i%4))*sim.NS)
				f.Write(i)
			}
		})
		e.K.Thread("consumer", func(p *sim.Process) {
			for i := 0; i < n; i++ {
				for f.IsEmpty() {
					p.WaitEvent(f.NotEmpty())
				}
				v, ok := f.TryRead()
				if !ok {
					panic("TryRead failed after IsEmpty=false")
				}
				e.Logf(p, "got %d", v)
			}
		})
	}
}

func TestDualModeEventConsumer(t *testing.T) {
	for _, depth := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			checkDualMode(t, scenarioEventConsumer(depth), 1)
		})
	}
}

// scenarioPacketizer models the case-study network interface (§IV-C): an
// SC_METHOD that, on each NotEmpty activation, drains the externally
// visible words into a packet and logs the packet boundary. The producer
// writes bursts at a single local date, so packet boundaries depend only on
// dates, not on the schedule.
func scenarioPacketizer(depth, bursts, burstLen int) Scenario {
	return func(e *Env) {
		f := e.NewFIFO("fifo", depth)
		e.K.Thread("producer", func(p *sim.Process) {
			v := 0
			for b := 0; b < bursts; b++ {
				for w := 0; w < burstLen; w++ {
					f.Write(v) // whole burst at one local date
					v++
				}
				e.Delay(p, 40*sim.NS)
			}
		})
		e.K.MethodNoInit("ni", func(p *sim.Process) {
			var packet []int
			for {
				v, ok := f.TryRead()
				if !ok {
					break
				}
				packet = append(packet, v)
			}
			if len(packet) > 0 {
				e.Logf(p, "packet len %d first %d", len(packet), packet[0])
			}
		}, f.NotEmpty())
	}
}

func TestDualModePacketizer(t *testing.T) {
	for _, c := range []struct{ depth, bursts, burstLen int }{
		{8, 5, 4},
		{16, 6, 8},
		{4, 8, 3},
	} {
		t.Run(fmt.Sprintf("d%d_b%dx%d", c.depth, c.bursts, c.burstLen), func(t *testing.T) {
			checkDualMode(t, scenarioPacketizer(c.depth, c.bursts, c.burstLen), 1)
		})
	}
}

// scenarioRandom drives a 2-FIFO chain with seeded random per-word periods
// (multiples of 10ns, keeping the monitor race-free at 5ns offsets), the
// paper's "random tests use twice the same seed".
func scenarioRandom(seed int64) Scenario {
	return func(e *Env) {
		r := rand.New(rand.NewSource(seed))
		const n = 60
		depth := 1 + r.Intn(6)
		f1 := e.NewFIFO("f1", depth)
		f2 := e.NewFIFO("f2", 1+r.Intn(6))
		// Pre-draw all periods so both modes see identical values
		// regardless of execution order.
		draw := func() []sim.Time {
			ds := make([]sim.Time, n)
			for i := range ds {
				ds[i] = sim.Time(r.Intn(5)) * 10 * sim.NS
			}
			return ds
		}
		sPer, tPer, kPer := draw(), draw(), draw()
		e.K.Thread("source", func(p *sim.Process) {
			for i := 0; i < n; i++ {
				f1.Write(i)
				e.Delay(p, sPer[i])
			}
			e.Logf(p, "source done")
		})
		e.K.Thread("relay", func(p *sim.Process) {
			for i := 0; i < n; i++ {
				v := f1.Read()
				e.Delay(p, tPer[i])
				f2.Write(v + 1000)
				e.Logf(p, "relayed %d", v)
			}
		})
		e.K.Thread("sink", func(p *sim.Process) {
			for i := 0; i < n; i++ {
				v := f2.Read()
				e.Logf(p, "sank %d", v)
				e.Delay(p, kPer[i])
			}
		})
		e.K.Thread("monitor", func(p *sim.Process) {
			p.Wait(5 * sim.NS)
			for i := 0; i < 25; i++ {
				e.Logf(p, "sizes %d %d", f1.Size(), f2.Size())
				p.Wait(70 * sim.NS)
			}
		})
	}
}

func TestDualModeRandom(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			checkDualMode(t, scenarioRandom(seed), seed)
		})
	}
}

// scenarioMixedSync mixes a decoupled producer with a consumer that
// synchronizes explicitly between reads (a process straddling both styles).
func scenarioMixedSync(depth int) Scenario {
	return func(e *Env) {
		f := e.NewFIFO("fifo", depth)
		const n = 20
		e.K.Thread("producer", func(p *sim.Process) {
			for i := 0; i < n; i++ {
				f.Write(i)
				e.Delay(p, 12*sim.NS)
			}
		})
		e.K.Thread("consumer", func(p *sim.Process) {
			for i := 0; i < n; i++ {
				v := f.Read()
				e.Logf(p, "consumed %d", v)
				e.Delay(p, 9*sim.NS)
				if i%5 == 4 {
					// An explicit synchronization point (§II-A):
					// legal in both modes.
					p.Sync()
					e.Logf(p, "synced")
				}
			}
		})
	}
}

func TestDualModeMixedSync(t *testing.T) {
	for _, depth := range []int{1, 4} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			checkDualMode(t, scenarioMixedSync(depth), 1)
		})
	}
}

// TestDualModeBurst exercises the packetization burst API against per-word
// loops in the reference.
func TestDualModeBurst(t *testing.T) {
	scenario := func(e *Env) {
		const bursts, blen = 6, 5
		per := 4 * sim.NS
		f := e.NewFIFO("fifo", 8)
		e.K.Thread("producer", func(p *sim.Process) {
			v := 0
			for b := 0; b < bursts; b++ {
				if sf, ok := f.(*core.SmartFIFO[int]); ok {
					vals := make([]int, blen)
					for i := range vals {
						vals[i] = v
						v++
					}
					sf.WriteBurst(vals, per)
				} else {
					for i := 0; i < blen; i++ {
						if i > 0 {
							e.Delay(p, per)
						}
						f.Write(v)
						v++
					}
				}
				e.Delay(p, 50*sim.NS)
			}
		})
		e.K.Thread("consumer", func(p *sim.Process) {
			for i := 0; i < bursts*blen; i++ {
				v := f.Read()
				e.Logf(p, "got %d", v)
				e.Delay(p, 6*sim.NS)
			}
		})
	}
	checkDualMode(t, scenario, 1)
}
