package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/store"
)

// runConfig is one benchmark run as the command line asked for it.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	buildDir string // scratch directory; "" = a temporary one, removed at exit
	traceOut string // Chrome trace of a traced run; "" = <scratch>/trace-<workload>.json
	// tiny shrinks everything to smoke-test size (one set-up, one op per
	// phase, reduced-scale models without goldens, short rungs). Not a
	// flag: TestWorkloadsSmoke sets it, measurements never do.
	tiny bool
}

// reps returns n, or 1 at smoke-test size.
func (c *runConfig) reps(n int) int {
	if c.tiny {
		return 1
	}
	return n
}

// runCtx carries what every part of one run shares.
type runCtx struct {
	// ctx ends when the run is interrupted (SIGINT/SIGTERM): ops fail
	// fast, the op loops stop, and the normal return path kills the
	// child and removes its journal.
	ctx         context.Context
	cfg         runConfig
	dir         string // scratch: simd binary, journals, trace
	log         io.Writer
	tr          *tracer           // nil on untraced runs
	reg         *metrics.Registry // in-process registry, armed by enableTracing
	goldens     map[string]golden
	payloadSeed int64 // the model workloads' payload seed, derived from cfg.seed
	simdBin     string
	buildS      float64
	simdStderr  *tailBuffer // the most recent simd child's stderr tail
	values      map[string]float64
	// pinned is the CPU the run is confined to (-1: not pinned); allCPUs
	// is the mask unpinned lifts the pin to.
	pinned  int
	allCPUs cpuSet
}

// unpinned runs f on every CPU the process may use, at the Go default of
// one P per CPU, uninstrumented and without spans, then restores the pin
// and the Ps: the traced run's comparison ops, which put a number on what
// the pinned measurement leaves out.
func (rc *runCtx) unpinned(f func()) {
	disableTracing()
	rc.quiet(func() {
		if rc.pinned >= 0 {
			setAffinityAll(rc.allCPUs) // was possible a moment ago, on the same threads
			var one cpuSet
			one[rc.pinned/64] = 1 << (rc.pinned % 64)
			defer setAffinityAll(one)
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
		f()
	})
}

// quiet runs f with span recording off: baseline and comparison ops are
// not part of the traced picture.
func (rc *runCtx) quiet(f func()) {
	tr := rc.tr
	rc.tr = nil
	defer func() { rc.tr = tr }()
	f()
}

// set records one metric; the name must be in the catalogue.
func (rc *runCtx) set(name string, v float64) {
	if _, ok := lookupMetric(name); !ok {
		panic("bench: metric " + name + " is not in the catalogue") // a bug in the harness, not input
	}
	rc.values[name] = v
}

// workload is one row of the benchmark.
type workload struct {
	name string
	// minOps is the least number of timed ops a run takes whatever
	// -seconds says, and the op count after which peak memory is read
	// (so a faster run, fitting more ops into its seconds, does not
	// report a larger footprint for a server that retains its jobs).
	minOps int
	model  *modelDef // nil for sweeps
	cold   bool      // sweeps: fresh seeds every op
}

func (w *workload) sweep() bool { return w.model == nil }

// start performs one complete set-up of the workload.
func (w *workload) start(rc *runCtx, traced bool) (instance, error) {
	if w.sweep() {
		return startSweep(rc, w.cold, traced, true)
	}
	return startModel(rc, w.model, traced)
}

func workloads() []workload {
	var ws []workload
	for i := range modelDefs {
		ws = append(ws, workload{name: modelDefs[i].name, minOps: 15, model: &modelDefs[i]})
	}
	return append(ws,
		workload{name: "sweep_cold", minOps: 40, cold: true},
		workload{name: "sweep_warm", minOps: 200})
}

const (
	// setupReps is how many times an untraced run sets the workload up;
	// setup_s is the fastest.
	setupReps = 5
	// tracedMinOps is the least number of ops per phase of a traced run.
	tracedMinOps = 5
	// runDeadline stops starting new ops: the driver allows a run 180 s.
	runDeadline = 150 * time.Second
)

// opSeries is the reduction of a batch of timed ops.
type opSeries struct {
	samples           []opSample
	attempted, failed int
	dateErrNS         float64
	rssMB             float64 // VmHWM after op number minOps
	// childCPU is the child's CPU time over the ops (sweeps only).
	childCPU time.Duration
	firstErr error
}

// Host-time reductions. Interference from the box's other tenants only
// ever adds time, and on a shared 2-CPU machine it comes in regimes that
// last minutes and move medians by 20–40 % (README, "Measured spread"),
// so the gated figures are the fastest op of the run; the medians stay in
// the record as per-layer metrics.

func (s *opSeries) walls() []float64 {
	return pick(s.ok(), func(o *opSample) float64 { return ms(o.wall) })
}

func (s *opSeries) firsts() []float64 {
	return pick(s.ok(), func(o *opSample) float64 { return ms(o.first) })
}

// cpuPerOp returns the typical CPU cost of one op in ms: the median op
// for in-process rows; for a child process, whose CPU time the kernel
// charges in 10 ms ticks to whoever runs when the tick fires, the mean
// over the whole run. Recorded, not gated: on one CPU it tracks the wall
// time of the in-process rows, and tick sampling cannot resolve a 2 ms
// sweep op to better than ±15 %.
func (s *opSeries) cpuPerOp() float64 {
	if s.childCPU > 0 {
		return ms(s.childCPU) / float64(len(s.samples))
	}
	return median(pick(s.ok(), func(o *opSample) float64 { return ms(o.cpu) }))
}

// slicesMin is the smallest value, or 0 for an empty slice.
func slicesMin(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return slices.Min(v)
}

func (s *opSeries) ok() []opSample {
	var out []opSample
	for _, o := range s.samples {
		if o.err == nil {
			out = append(out, o)
		}
	}
	return out
}

// unsettled counts the sweep ops whose stream closed on a job status.
func (s *opSeries) unsettled() int {
	n := 0
	for _, o := range s.samples {
		if o.unsettled {
			n++
		}
	}
	return n
}

func pick(samples []opSample, f func(*opSample) float64) []float64 {
	out := make([]float64, len(samples))
	for i := range samples {
		out[i] = f(&samples[i])
	}
	return out
}

// countMedian is the median of one per-op counter over the ops that
// reported it.
func countMedian(samples []opSample, name string) (float64, bool) {
	var vs []float64
	for _, s := range samples {
		if v, ok := s.counts[name]; ok {
			vs = append(vs, v)
		}
	}
	return median(vs), len(vs) > 0
}

// timedOps runs ops 1, 2, ... on inst (op 0 was the set-up's warm-up)
// until both minOps ops and budget have passed, collecting with
// runtime.GC() between ops outside every timed span.
func timedOps(rc *runCtx, inst instance, minOps int, budget time.Duration, started time.Time) opSeries {
	var s opSeries
	pid := inst.pid()
	var cpu0 time.Duration
	if pid != 0 {
		cpu0, _ = pidCPU(pid) // an own live child's stat is always readable
	}
	t0 := time.Now()
	for n := 0; n < minOps || time.Since(t0) < budget; n++ {
		if time.Since(started) > runDeadline || rc.ctx.Err() != nil {
			fmt.Fprintf(rc.log, "stopping after %d ops: run deadline or interrupt\n", n)
			break
		}
		runtime.GC()
		o := inst.op(1 + n)
		s.samples = append(s.samples, o)
		s.attempted += o.attempted
		s.failed += o.failed
		s.dateErrNS = max(s.dateErrNS, o.dateErrNS)
		if o.err != nil && s.firstErr == nil {
			s.firstErr = fmt.Errorf("op %d: %w", 1+n, o.err)
		}
		if n+1 == minOps {
			s.rssMB, _ = peakRSSMB(pid) // /proc is always readable for self and an own child
		}
	}
	if pid != 0 {
		cpu1, _ := pidCPU(pid)
		s.childCPU = cpu1 - cpu0
	}
	return s
}

// runUntraced measures the end-to-end metrics: tracing and the
// in-process metrics registry stay off.
func runUntraced(rc *runCtx, w *workload, started time.Time) (opSeries, error) {
	var inst instance
	setups := make([]float64, 0, setupReps)
	for rep := 0; rep < rc.cfg.reps(setupReps); rep++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.start(rc, false); err != nil {
			return opSeries{}, fmt.Errorf("set-up %d: %w", rep, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()
	s := timedOps(rc, inst, rc.cfg.reps(w.minOps), time.Duration(rc.cfg.seconds*float64(time.Second)), started)
	s.dateErrNS = max(s.dateErrNS, inst.setupDateErrNS())
	ok := s.ok()
	if len(ok) == 0 {
		return s, fmt.Errorf("no op succeeded: %w", s.firstErr)
	}
	rc.set("setup_s", slicesMin(setups))
	rc.set("op_ms_min", slicesMin(s.walls()))
	rc.set("first_ms_min", slicesMin(s.firsts()))
	rc.set("peak_rss_mb", s.rssMB)
	fmt.Fprintf(rc.log, "%d timed ops (%d ok, median %.3f ms), set-up x%d %.3v s\n",
		len(s.samples), len(ok), median(s.walls()), len(setups), setups)
	if n := s.unsettled(); n > 0 {
		fmt.Fprintf(rc.log, "%d streams closed before their job had settled (status instead of aggregate; points complete)\n", n)
	}
	return s, nil
}

// enableTracing arms every instrumentation hook the program exports, on
// one registry, before any traced model is built.
func enableTracing(rc *runCtx) {
	rc.reg = metrics.NewRegistry()
	sim.EnableMetrics(rc.reg)
	core.EnableBridgeMetrics(rc.reg)
	par.EnableMetrics(rc.reg)
	netlist.EnableMetrics(rc.reg)
	par.SetTraceCapture(timelineCapacity)
}

// disableTracing detaches every hook again: models built from here on
// are uninstrumented.
func disableTracing() {
	sim.EnableMetrics(nil)
	core.EnableBridgeMetrics(nil)
	par.EnableMetrics(nil)
	netlist.EnableMetrics(nil)
	par.SetTraceCapture(0)
}

// ladder measures every rung and records one span per rung.
func ladder(rc *runCtx) error {
	root := rc.tr.begin("ladder", nil, -1)
	defer root.done()
	// The in-kernel rungs are single-kernel primitives: one P, whatever
	// the workload runs on, so a rung reads the same in every traced run
	// (on two Ps the burst rung alone is 1.8x slower and noisier).
	prev := runtime.GOMAXPROCS(1)
	for _, r := range kernelRungs {
		sp := rc.tr.begin("rung."+r.metric, root, -1)
		v := measureRung(r, rc.cfg.tiny)
		sp.done()
		if def, _ := lookupMetric(r.metric); def.unit == "us" {
			v /= 1e3
		}
		rc.set(r.metric, v)
	}
	runtime.GOMAXPROCS(prev)

	sp := rc.tr.begin("rung.par.roundtrip", root, -1)
	lat, st, err := roundTrips(rc.cfg.reps(4000)+50, 50)
	sp.done()
	if err != nil {
		return fmt.Errorf("round-trip rung: %w", err)
	}
	rc.set("par.roundtrip_us_p50", percentile(lat, 0.50))
	rc.set("par.roundtrip_us_p99", percentile(lat, 0.99))
	// The coordinator of a netlist build is not reachable through
	// soc.RunClustered, so the flush count is the rung's own.
	rc.set("par.flushes", float64(st.Flushes))

	sp = rc.tr.begin("rung.store.append", root, -1)
	single, batched, err := storeRungs(rc.dir, rc.cfg.reps(rungBatches))
	sp.done()
	if err != nil {
		return err
	}
	rc.set("store.append_us", single)
	rc.set("store.append_batched_us", batched)

	sp = rc.tr.begin("rung.campaign", root, -1)
	expand, warm, emit, err := campaignRungs(sweepDoc(sweepSeeds(rc.cfg.seed, 0)), rc.cfg.reps(rungBatches))
	sp.done()
	if err != nil {
		return err
	}
	rc.set("scenario.expand_us_per_point", expand)
	rc.set("campaign.warm_us_per_point", warm)
	rc.set("campaign.emit_us_per_point", emit)
	return nil
}

// runTraced produces every per-layer number: the ladder, then a few ops
// with instrumentation off (the overhead baseline), then the same ops
// with every hook armed, then the workload's own comparison runs. None
// of it feeds the end-to-end table.
func runTraced(rc *runCtx, w *workload, started time.Time) (opSeries, error) {
	rc.tr = newTracer()
	// The host calibration first: which regime the box is in right now.
	walks := make([]float64, 5)
	for i := range walks {
		walks[i] = ms(memWalk())
	}
	rc.set("host.calib_walk_ms", median(walks))
	if err := ladder(rc); err != nil {
		return opSeries{}, err
	}
	// The ladder has a fixed cost; the ops share what is left of the
	// seconds, with a floor of tracedMinOps ops per phase.
	phase := max(time.Duration(rc.cfg.seconds*float64(time.Second))-time.Since(started), 0) / 3

	var bs opSeries
	var err error
	rc.quiet(func() {
		var base instance
		if base, err = w.start(rc, false); err != nil {
			return
		}
		defer base.close()
		bs = timedOps(rc, base, rc.cfg.reps(tracedMinOps), phase, started)
	})
	if err != nil {
		return opSeries{}, fmt.Errorf("baseline set-up: %w", err)
	}

	enableTracing(rc)
	inst, err := w.start(rc, true)
	if err != nil {
		return opSeries{}, fmt.Errorf("traced set-up: %w", err)
	}
	s := timedOps(rc, inst, rc.cfg.reps(tracedMinOps), phase, started)
	s.dateErrNS = max(s.dateErrNS, bs.dateErrNS, inst.setupDateErrNS())
	s.attempted += bs.attempted
	s.failed += bs.failed
	if s.firstErr == nil {
		s.firstErr = bs.firstErr
	}
	ok, bok := s.ok(), bs.ok()
	if len(ok) == 0 || len(bok) == 0 {
		inst.close()
		return s, fmt.Errorf("no op succeeded: %w", s.firstErr)
	}
	// The uninstrumented ops give the ISSUE's typical-op figures (recorded,
	// not gated) and the base every share and ratio below is taken against:
	// the fastest op, like the gated figures.
	rc.set("op_ms_p50", median(bs.walls()))
	rc.set("first_ms_p50", median(bs.firsts()))
	rc.set("cpu_ms_per_op", bs.cpuPerOp())
	opMin, baseMin := slicesMin(s.walls()), slicesMin(bs.walls())
	rc.set("trace.overhead_pct", 100*(opMin-baseMin)/baseMin)
	fmt.Fprintf(rc.log, "%d baseline ops: fastest %.3f ms, median %.3f ms; %d traced ops: fastest %.3f ms\n",
		len(bok), baseMin, median(bs.walls()), len(ok), opMin)

	for _, m := range catalogue {
		if v, seen := countMedian(ok, m.name); seen {
			rc.set(m.name, v)
		}
	}
	if w.sweep() {
		err = sweepLayerMetrics(rc, w, inst.(*sweepInst), ok, baseMin, started)
	} else {
		inst.close()
		modelLayerMetrics(rc, w, ok, baseMin, started)
	}
	return s, err
}

// modelLayerMetrics derives the in-process rows' per-layer figures from
// the traced ops, the ladder and the comparison runs.
func modelLayerMetrics(rc *runCtx, w *workload, ok []opSample, baseMin float64, started time.Time) {
	words := rc.values["core.words"]
	rc.set(w.model.layer+".host_ns_per_word", baseMin*1e6/words)
	rc.set("netlist.build_teardown_ms", median(pick(ok, func(o *opSample) float64 { return ms(o.wall - o.inner) })))
	rc.set("host.alloc_kb_per_op", median(pick(ok, func(o *opSample) float64 { return o.allocKB })))
	rc.set("host.gc_cycles_per_op", median(pick(ok, func(o *opSample) float64 { return o.gcs })))
	rc.set("sim.switch_share_pct", 100*rc.values["sim.ctx_switches"]*rc.values["sim.switch_ns"]/(baseMin*1e6))
	// One write+read pair per word per FIFO, two FIFOs in the fig5 model.
	pairRung := map[string]string{"fig5_d1": "core.smart_block_ns", "fig5_deep": "core.smart_op_ns", "fig5_burst": "core.burst_word_ns"}
	if r, isFig5 := pairRung[w.name]; isFig5 {
		rc.set("core.op_share_pct", 100*words*2*rc.values[r]/(baseMin*1e6))
	}
	if sc, err := registryScrape(rc.reg); err == nil {
		rc.set("core.bridge_flush_batch_p50", histogramMedian(nil, sc, "core_bridge_flush_batch_words"))
	}
	// The comparison runs below are uninstrumented, like the base they
	// are set against.
	disableTracing()
	if w.name == "soc_case" {
		// The paper's §IV-C figure: one run of the same SoC on
		// sync-on-access FIFOs against the Smart-FIFO op.
		sp := rc.tr.begin("soc.Run(SyncFIFOs)", nil, -1)
		_, wall, err := runModel(rc.ctx, w.model, reference, false, rc.payloadSeed)
		sp.done()
		if err == nil {
			rc.set("soc.gain_vs_sync_pct", 100*(ms(wall)-baseMin)/ms(wall))
		} else {
			fmt.Fprintf(rc.log, "sync-FIFO comparison run failed: %v\n", err)
		}
	}
	// What the pinned, one-P measurement leaves out: the same op on every
	// CPU at the Go default of one P per CPU, typical op against typical
	// op; and for the sharded row whether two kernels on two CPUs beat one
	// kernel — last, so the extra threads disturb nothing else.
	n := rc.cfg.reps(tracedMinOps)
	rc.unpinned(func() {
		multi := timedOps(rc, bareModel(rc, w.model, underTest), n, 0, started)
		if mw := multi.walls(); len(mw) > 0 {
			rc.set("host.multi_p_slowdown_x", median(mw)/rc.values["op_ms_p50"])
			if w.name == "soc_shard2" {
				single := timedOps(rc, bareModel(rc, w.model, reference), n, 0, started)
				if sw := single.walls(); len(sw) > 0 {
					rc.set("par.speedup_x", slicesMin(sw)/slicesMin(mw))
				}
			}
		}
	})
}

// sweepLayerMetrics derives the sweeps' per-layer figures, runs the
// store-off comparison (sweep_cold) and times recovery of the journal
// the traced simd leaves behind. It stops inst.
func sweepLayerMetrics(rc *runCtx, w *workload, inst *sweepInst, ok []opSample, baseMin float64, started time.Time) error {
	defer inst.close()
	rc.set("simd.build_s", rc.buildS)
	rc.set("simd.boot_ms", inst.simd.bootMS)
	rc.set("simd.submit_ack_ms_p50", median(pick(ok, func(o *opSample) float64 { return ms(o.ack) })))
	done := pick(ok, func(o *opSample) float64 { return ms(o.wall) })
	q := tailQuantile(len(done), 0.90)
	rc.set("simd.done_ms_p90", percentile(done, q))
	fmt.Fprintf(rc.log, "simd.done_ms_p90 is quoted at p%g: %d samples\n", q*100, len(done))
	rc.set("simd.results_fetch_ms_p50", median(pick(ok, func(o *opSample) float64 { return ms(o.fetch) })))
	rc.set("simd.metrics_scrape_ms_p50", median(pick(ok, func(o *opSample) float64 { return ms(o.scrapeT) })))
	rc.set("campaign.points_per_s", sweepPoints/(baseMin/1e3))
	if f := rc.values["store.fsyncs"]; f > 0 {
		rc.set("store.records_per_fsync", rc.values["store.records"]/f)
	}
	rc.set("sim.switch_share_pct", 100*rc.values["sim.ctx_switches"]*rc.values["sim.switch_ns"]/(baseMin*1e6))

	if w.cold {
		// The same cold sweep against a simd without -store, differenced
		// per point: what durability costs on the served path.
		sp := rc.tr.begin("sweep_cold without -store", nil, -1)
		var err error
		rc.quiet(func() {
			var noStore *sweepInst
			if noStore, err = startSweep(rc, true, false, false); err != nil {
				return
			}
			defer noStore.close()
			ns := timedOps(rc, noStore, rc.cfg.reps(tracedMinOps), 0, started)
			if nw := ns.walls(); len(nw) > 0 {
				rc.set("store.overhead_ms_per_point", (baseMin-slicesMin(nw))/sweepPoints)
			}
		})
		sp.done()
		if err != nil {
			return fmt.Errorf("store-off comparison: %w", err)
		}
	}

	// The same sweep against a simd free to use every CPU (the harness
	// too): typical op against the pinned typical op.
	var err error
	rc.unpinned(func() {
		var free *sweepInst
		if free, err = startSweep(rc, w.cold, false, true); err != nil {
			return
		}
		defer free.close()
		fs := timedOps(rc, free, rc.cfg.reps(tracedMinOps), 0, started)
		if fw := fs.walls(); len(fw) > 0 {
			rc.set("host.multi_p_slowdown_x", median(fw)/rc.values["op_ms_p50"])
		}
	})
	if err != nil {
		return fmt.Errorf("unpinned comparison: %w", err)
	}

	// Recovery: stop the traced simd gracefully and replay its journal.
	inst.simd.halt()
	sp := rc.tr.begin("store.Open (recovery)", nil, -1)
	t0 := time.Now()
	st, rec, err := store.Open(inst.simd.storeDir, store.Options{})
	d := time.Since(t0)
	sp.done()
	if err != nil {
		return fmt.Errorf("recovering the journal the sweep left behind: %w", err)
	}
	st.Close() // nothing was appended; the journal is about to be removed
	rc.set("store.recover_ms", ms(d))
	fmt.Fprintf(rc.log, "store.recover_ms: %d points replayed, %d torn tail records\n", len(rec.Points), rec.TornTails)
	return nil
}

// document is the full result of one run: what -out appends and
// -compare reads. The contract's last stdout line is its result part.
type document struct {
	Stamp stamp `json:"stamp"`
	// Samples holds the per-op measurements (wall and, for in-process
	// rows, CPU, ms) for offline analysis; the driver's last line does not
	// carry them.
	Samples   map[string][]float64 `json:"samples,omitempty"`
	Workload  string               `json:"workload"`
	Trace     bool                 `json:"trace"`
	Seconds   float64              `json:"seconds"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metric    `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute performs one run and returns its document. An error means the
// run could not produce a result at all (no build, no boot, no
// successful op); failed ops inside a completed run are in the document.
func execute(ctx context.Context, cfg runConfig, log io.Writer) (*document, error) {
	started := time.Now()
	var w *workload
	all := workloads()
	for i := range all {
		if all[i].name == cfg.workload {
			w = &all[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	pinned, allCPUs := pinToOneCPU()
	if !w.sweep() {
		// One P for the in-process rows: a simulation kernel runs exactly
		// one process at a time, so extra Ps only let the Go scheduler
		// migrate the hand-off between threads — slower and several times
		// noisier (README, "Findings"). host.multi_p_slowdown_x and
		// par.speedup_x keep the unpinned default's figures in the record.
		runtime.GOMAXPROCS(1)
	}
	st := newStamp(cfg.seed, pinned)
	goldens, err := loadGoldens()
	if err != nil {
		return nil, err
	}
	rc := &runCtx{ctx: ctx, cfg: cfg, log: log, goldens: goldens, values: map[string]float64{}, pinned: pinned, allCPUs: allCPUs,
		payloadSeed: scenario.Rand(cfg.seed).Int63()}
	if rc.dir = cfg.buildDir; rc.dir == "" {
		if rc.dir, err = os.MkdirTemp("", "simbench-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(rc.dir)
	} else if err := os.MkdirAll(rc.dir, 0o755); err != nil {
		return nil, err
	}
	if rc.dir, err = filepath.Abs(rc.dir); err != nil {
		return nil, err
	}
	if w.sweep() {
		bctx, cancel := context.WithTimeout(ctx, 15*time.Minute)
		bin, d, err := buildSimd(bctx, rc.dir)
		cancel()
		if err != nil {
			return nil, err
		}
		rc.simdBin, rc.buildS = bin, d.Seconds()
	}

	var s opSeries
	if cfg.traced {
		s, err = runTraced(rc, w, started)
	} else {
		s, err = runUntraced(rc, w, started)
	}
	if err != nil {
		return nil, err
	}
	if s.firstErr != nil {
		fmt.Fprintf(log, "first failure: %v\n", s.firstErr)
		if rc.simdStderr != nil {
			fmt.Fprintf(log, "simd stderr (tail):\n%s\n", rc.simdStderr)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("interrupted: %w", err)
	}

	want := endToEnd
	if cfg.traced {
		want = perLayer
		rc.set("max_date_err_ns", s.dateErrNS)
	}
	doc := &document{Stamp: st, Workload: w.name, Trace: cfg.traced, Seconds: cfg.seconds,
		Attempted: s.attempted, Failed: s.failed, Metrics: map[string]metric{}}
	doc.Correct = s.failed == 0 && s.dateErrNS == 0
	doc.Samples = map[string][]float64{
		"wall_ms": pick(s.samples, func(o *opSample) float64 { return ms(o.wall) }),
		"cpu_ms":  pick(s.samples, func(o *opSample) float64 { return ms(o.cpu) }),
	}
	for _, m := range catalogue {
		if m.kind != want {
			continue
		}
		// A per-layer metric a workload has no value for reads 0: the
		// layer does no work on that row (README, "not applicable").
		doc.Metrics[m.name] = metric{Value: rc.values[m.name], Unit: m.unit}
	}

	if cfg.traced {
		if err := writeTrace(rc, w); err != nil {
			return nil, err
		}
	}
	return doc, nil
}

// writeTrace dumps the run's spans as Chrome trace JSON and prints the
// self-time table: where the traced run's wall time went.
func writeTrace(rc *runCtx, w *workload) error {
	path := rc.cfg.traceOut
	if path == "" {
		dir := rc.cfg.buildDir
		if dir == "" {
			dir = os.TempDir() // the scratch directory is removed at exit; the trace should outlive the run
		}
		path = filepath.Join(dir, "trace-"+w.name+".json")
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing the trace: %w", err)
	}
	if err := writeChromeTrace(f, "bench "+w.name, rc.tr.spans); err != nil {
		f.Close()
		return fmt.Errorf("writing the trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing the trace: %w", err)
	}
	fmt.Fprintf(rc.log, "%d spans written to %s; self time by span name:\n", len(rc.tr.spans), path)
	self := selfByName(rc.tr.spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		fmt.Fprintf(rc.log, "  %-40s %10.3f ms\n", n, ms(self[n]))
	}
	return nil
}
