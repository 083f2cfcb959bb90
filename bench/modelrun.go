package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/par"
	"repro/internal/sim"
)

// golden pins the simulated outputs of one in-process workload at full
// scale. Dates, end date and kernel counters do not depend on the
// payload seed; checksums do, so they are pinned for goldenSeed only and
// checked against the reference build and across ops for other seeds.
type golden struct {
	Dates       string   `json:"dates_hash"`
	SimEndPS    int64    `json:"sim_end_ps"`
	CtxSwitches uint64   `json:"ctx_switches,omitempty"` // single-kernel rows only
	BusAccesses uint64   `json:"bus_accesses,omitempty"`
	NoCFlits    uint64   `json:"noc_flits,omitempty"`
	Checksums   []string `json:"checksums_seed1"` // %016x: uint64 does not survive every JSON reader
}

// goldenSeed is the benchmark seed whose checksums the goldens carry.
const goldenSeed = 1

//go:embed goldens.json
var goldensJSON []byte

func loadGoldens() (map[string]golden, error) {
	var g map[string]golden
	dec := json.NewDecoder(bytes.NewReader(goldensJSON))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		return nil, fmt.Errorf("goldens.json: %w", err)
	}
	return g, nil
}

func hexSums(sums []uint64) []string {
	out := make([]string, len(sums))
	for i, s := range sums {
		out[i] = fmt.Sprintf("%016x", s)
	}
	return out
}

// goldenOf renders a run as the golden it would pin.
func goldenOf(def *modelDef, o *modelOut) golden {
	g := golden{Dates: o.digest(), SimEndPS: int64(o.simEnd), BusAccesses: o.bus, NoCFlits: o.flits,
		Checksums: hexSums(o.checksums)}
	if def.singleKernel {
		g.CtxSwitches = o.stats.ContextSwitches
	}
	return g
}

// checkGolden compares a full-scale run with its golden; withSums adds
// the seed-dependent checksums.
func checkGolden(def *modelDef, want golden, o *modelOut, withSums bool) error {
	got := goldenOf(def, o)
	switch {
	case got.Dates != want.Dates:
		return fmt.Errorf("dated log digest %s, golden %s", got.Dates, want.Dates)
	case got.SimEndPS != want.SimEndPS:
		return fmt.Errorf("sim end %d ps, golden %d ps", got.SimEndPS, want.SimEndPS)
	case got.CtxSwitches != want.CtxSwitches:
		return fmt.Errorf("%d context switches, golden %d", got.CtxSwitches, want.CtxSwitches)
	case got.BusAccesses != want.BusAccesses || got.NoCFlits != want.NoCFlits:
		return fmt.Errorf("bus accesses %d / NoC flits %d, golden %d / %d", got.BusAccesses, got.NoCFlits, want.BusAccesses, want.NoCFlits)
	}
	if withSums && fmt.Sprint(got.Checksums) != fmt.Sprint(want.Checksums) {
		return fmt.Errorf("checksums %v, golden %v", got.Checksums, want.Checksums)
	}
	return nil
}

// opSample is one op as the harness saw it.
type opSample struct {
	wall  time.Duration // op entry → return; sweeps: POST sent → last stream line
	first time.Duration // sweeps: POST sent → first streamed line; in-process: the call's return
	cpu   time.Duration // in-process rows: CPU of this process across the op
	// attempted/failed count runs for model workloads and points for
	// sweeps; err describes the first failure.
	attempted, failed int
	err               error
	dateErrNS         float64
	unsettled         bool // sweeps: the stream closed before the job settled (see sweepCheck)
	// counts are the exact per-op counters keyed by catalogue name.
	counts map[string]float64
	// Layer timings that exist only on some workloads (0 elsewhere).
	inner   time.Duration // Result.Wall: the kernel run inside the call
	ack     time.Duration // sweeps: POST → 201
	fetch   time.Duration // traced sweeps: buffered GET results after completion
	scrapeT time.Duration // traced sweeps: one GET /metrics
	allocKB float64       // traced in-process rows
	gcs     float64
}

// instance is one set-up copy of a workload, ready to run ops.
type instance interface {
	// op runs op number i (0 is the warm-up) and checks its outputs.
	op(i int) opSample
	// pid is the process under test: 0 for this process, else the child.
	pid() int
	// dateErrNS is the set-up reference check's largest date difference.
	setupDateErrNS() float64
	close()
}

// modelInst is a set-up in-process workload.
type modelInst struct {
	rc      *runCtx
	def     *modelDef
	want    golden
	traced  bool
	variant variant // underTest, or reference for the par.speedup_x comparison ops
	dateErr float64
	sums    []uint64 // the warm-up op's checksums: every timed op must repeat them
}

// bareModel is an uninstrumented instance without the set-up checks, for
// the traced run's comparison ops.
func bareModel(rc *runCtx, def *modelDef, v variant) *modelInst {
	return &modelInst{rc: rc, def: def, want: rc.goldens[def.name], variant: v}
}

// runModel calls the model with the op timeout, turning a panic (the
// models panic on impossible configurations) into an error.
func runModel(ctx context.Context, def *modelDef, v variant, reduced bool, seed int64) (out modelOut, wall time.Duration, err error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("model panicked: %v", r)
		}
	}()
	t0 := time.Now()
	out, err = def.run(ctx, v, reduced, seed)
	return out, time.Since(t0), err
}

// startModel is the set-up of an in-process workload: the reduced-scale
// reference check (the build under test against TDless / SyncFIFOs /
// one shard, date by date and checksum by checksum), then the discarded
// warm-up op at full scale.
func startModel(rc *runCtx, def *modelDef, traced bool) (instance, error) {
	want, ok := rc.goldens[def.name]
	if !ok {
		return nil, fmt.Errorf("%s: no golden (regenerate with go test -run TestGoldens -update)", def.name)
	}
	m := &modelInst{rc: rc, def: def, want: want, traced: traced}
	sp := rc.tr.begin("setup.reference_check", nil, -1)
	ref, _, err := runModel(rc.ctx, def, reference, true, rc.payloadSeed)
	if err != nil {
		return nil, fmt.Errorf("%s: reference build: %w", def.name, err)
	}
	got, _, err := runModel(rc.ctx, def, underTest, true, rc.payloadSeed)
	if err != nil {
		return nil, fmt.Errorf("%s: reduced-scale run: %w", def.name, err)
	}
	sp.done()
	if m.dateErr, err = maxDateErr(&ref, &got); err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	if !equalU64(ref.checksums, got.checksums) {
		return nil, fmt.Errorf("%s: checksums differ from the reference build at reduced scale", def.name)
	}
	warm := m.op(0)
	if warm.err != nil {
		return nil, fmt.Errorf("%s: warm-up op: %w", def.name, warm.err)
	}
	return m, nil
}

func (m *modelInst) pid() int                { return 0 }
func (m *modelInst) setupDateErrNS() float64 { return m.dateErr }
func (m *modelInst) close()                  {}

func (m *modelInst) op(i int) opSample {
	s := opSample{attempted: 1}
	var before scrape
	var ms0 runtime.MemStats
	if m.traced {
		before, _ = registryScrape(m.rc.reg) // the in-process registry always encodes
		runtime.ReadMemStats(&ms0)
	}
	sp := m.rc.tr.begin(m.def.layer+".Run", nil, i)
	cpu0 := selfCPU()
	out, wall, err := runModel(m.rc.ctx, m.def, m.variant, m.rc.cfg.tiny, m.rc.payloadSeed)
	s.cpu = selfCPU() - cpu0
	sp.done()
	s.wall, s.first, s.inner = wall, wall, out.kernelWall
	if err != nil {
		s.failed, s.err = 1, err
		return s
	}
	sp.child("kernel_run", out.kernelWall)

	withSums := m.rc.cfg.seed == goldenSeed
	if m.rc.cfg.tiny {
		// Smoke-test size runs the reduced scale, which has no golden.
	} else if err := checkGolden(m.def, m.want, &out, withSums); err != nil {
		s.failed, s.err = 1, err
	} else if m.sums != nil && !equalU64(m.sums, out.checksums) {
		s.failed, s.err = 1, fmt.Errorf("checksums differ from the warm-up op's")
	}
	if m.sums == nil {
		m.sums = out.checksums
	}

	ns := func(t sim.Time) float64 { return float64(t) / float64(sim.NS) }
	s.counts = map[string]float64{
		"sim.ctx_switches":          float64(out.stats.ContextSwitches),
		"sim.method_activations":    float64(out.stats.MethodActivations),
		"sim.delta_cycles":          float64(out.stats.DeltaCycles),
		"sim.timed_steps":           float64(out.stats.TimedSteps),
		"sim.notifications":         float64(out.stats.Notifications),
		"core.words":                float64(out.words),
		"par.advances":              float64(out.advances),
		"par.crossings":             float64(out.crossings),
		m.def.layer + ".sim_end_ns": ns(out.simEnd),
	}
	if m.def.layer == "soc" {
		s.counts["soc.bus_accesses"] = float64(out.bus)
		s.counts["soc.noc_flits"] = float64(out.flits)
	}
	if m.traced {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		s.allocKB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024
		s.gcs = float64(ms1.NumGC - ms0.NumGC)
		after, _ := registryScrape(m.rc.reg)
		for name, family := range map[string]string{
			"core.bridge_words":   "core_bridge_words_total",
			"core.bridge_credits": "core_bridge_credits_total",
			"par.fallbacks":       "par_fallbacks_total",
			"par.parks":           "par_parks_total",
			"par.rendezvous":      "par_rendezvous_total",
		} {
			s.counts[name] = delta(before, after, family)
		}
		s.counts["par.wakes_hard"] = after[`par_wakes_total{grade="hard"}`] - before[`par_wakes_total{grade="hard"}`]
		s.counts["par.wakes_soft"] = after[`par_wakes_total{grade="soft"}`] - before[`par_wakes_total{grade="soft"}`]
		if out.shards > 1 {
			if tl := par.LastTrace(); tl != nil {
				step, exch, parked := timelineTotals(tl)
				s.counts["par.step_ms"], s.counts["par.exchange_ms"], s.counts["par.parked_ms"] = step, exch, parked
			}
		}
	}
	return s
}

// timelineCapacity is the per-worker event ring armed on traced runs:
// above the ~10^5 step/exchange/park records one soc_shard2 op writes
// per worker, so the per-op sums are over the whole op.
const timelineCapacity = 1 << 18

// timelineTotals sums the scheduler timeline's duration events by kind,
// over all workers, in milliseconds: where the shard workers' wall time
// went (stepping a kernel, exchanging over bridges, parked).
func timelineTotals(tl *par.Timeline) (step, exchange, parked float64) {
	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf); err != nil {
		return 0, 0, 0 // a bytes.Buffer does not fail
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"` // microseconds
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return 0, 0, 0 // the repository's own encoder; unreadable means nothing to attribute
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		switch e.Name {
		case "step":
			step += e.Dur / 1e3
		case "exchange":
			exchange += e.Dur / 1e3
		case "park":
			parked += e.Dur / 1e3
		}
	}
	return step, exchange, parked
}
