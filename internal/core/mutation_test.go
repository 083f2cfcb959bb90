package core_test

// Mechanized version of the paper's §IV-A mutation testing: for every
// injectable fault, at least one validation scenario must diverge from the
// reference trace (or crash). A fault that survives the whole suite means
// the suite is too weak.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// mutationScenarios is the §IV-A suite used for fault detection.
var mutationScenarios = map[string]Scenario{
	"fig1-deep":        scenarioFig1(4, 12, 20*sim.NS, 15*sim.NS),
	"fig1-backpressed": scenarioFig1(1, 12, 0, 25*sim.NS),
	"pipeline":         scenarioPipeline(2, 4, 8, 5*sim.NS, 20*sim.NS, 10*sim.NS),
	"monitor":          scenarioMonitor(3),
	"event-consumer":   scenarioEventConsumer(4),
	"packetizer":       scenarioPacketizer(32, 5, 4),
	"random":           scenarioRandom(7),
}

// runSmartSafe runs scenario s in smart mode with fault ft, converting a
// model panic (some faults break internal invariants) into a detection.
func runSmartSafe(s Scenario, ft core.Fault) (rec *trace.Recorder, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	rec = runMode(s, ModeSmart, 1, ft)
	return rec, false
}

func TestMutationsAreCaught(t *testing.T) {
	for _, ft := range core.AllFaults {
		t.Run(ft.String(), func(t *testing.T) {
			for name, s := range mutationScenarios {
				ref := runMode(s, ModeReference, 1, core.FaultNone)
				smart, panicked := runSmartSafe(s, ft)
				if panicked || trace.Diff(ref, smart) != "" {
					t.Logf("fault %v caught by scenario %q (panicked=%v)", ft, name, panicked)
					return
				}
			}
			t.Errorf("fault %v not caught by any validation scenario", ft)
		})
	}
	// The bridge row: the data-path faults injected into both ends of a
	// ShardedFIFO must change its trace, whose fault-free version is the
	// SmartFIFO one.
	t.Run("bridge", func(t *testing.T) {
		smart, _ := runChainSafe(false, core.FaultNone)
		ref, panicked := runChainSafe(true, core.FaultNone)
		if panicked {
			t.Fatal("fault-free bridge chain panicked")
		}
		if d := trace.Diff(smart, ref); d != "" {
			t.Fatalf("fault-free bridge trace differs from the SmartFIFO one:\n%s", d)
		}
		for _, ft := range []core.Fault{core.FaultNoReaderAdvance, core.FaultNoWriterAdvance, core.FaultInsertDateNow} {
			got, panicked := runChainSafe(true, ft)
			if !panicked && trace.Diff(ref, got) == "" {
				t.Errorf("fault %v not caught on the bridge", ft)
			}
		}
	})
}

// runChainSafe runs a decoupled writer→reader chain, bursty writer and
// steady reader over a depth-3 channel so both sides block and advance,
// through a one-kernel ShardedFIFO (bridge) or a SmartFIFO, with fault ft
// injected. The bridge is exchanged by a Run/Flush loop at every
// nanosecond, the date grain of the model, so a parked end wakes at the
// date a SmartFIFO would wake it and the dates stay exact.
func runChainSafe(bridge bool, ft core.Fault) (rec *trace.Recorder, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	k := sim.NewKernel("chain")
	defer k.Shutdown()
	rec = trace.NewRecorder()
	var w interface{ Write(int) }
	var r interface{ Read() int }
	var b *core.ShardedFIFO[int]
	if bridge {
		b = core.NewSharded[int](k, k, "f", 3)
		b.SetFault(ft)
		w, r = b.Writer(), b.Reader()
	} else {
		f := core.NewSmart[int](k, "f", 3)
		f.SetFault(ft)
		w, r = f, f
	}
	const n = 30
	k.Thread("writer", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			w.Write(i)
			rec.Logf(p, "wrote %d", i)
			if i%8 == 7 {
				p.Inc(70 * sim.NS)
			} else {
				p.Inc(5 * sim.NS)
			}
		}
	})
	k.Thread("reader", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			rec.Logf(p, "read %d", r.Read())
			p.Inc(15 * sim.NS)
		}
	})
	if b == nil {
		k.Run(sim.RunForever)
		return rec, false
	}
	for end := sim.Time(0); end < 10*sim.US; end += sim.NS {
		k.Run(end)
		if !b.Flush() && len(k.Blocked()) == 0 {
			break
		}
	}
	return rec, false
}

// TestNoFaultFalsePositive double-checks that the detector itself is sound:
// with FaultNone, no scenario may diverge.
func TestNoFaultFalsePositive(t *testing.T) {
	for name, s := range mutationScenarios {
		ref := runMode(s, ModeReference, 1, core.FaultNone)
		smart, panicked := runSmartSafe(s, core.FaultNone)
		if panicked {
			t.Errorf("scenario %q panicked without fault", name)
			continue
		}
		if d := trace.Diff(ref, smart); d != "" {
			t.Errorf("scenario %q diverges without fault:\n%s", name, d)
		}
	}
}
