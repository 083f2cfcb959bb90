// Command campaign drives the campaign engine from a scenario spec file:
// the batch twin of the simd HTTP service. It expands the spec's matrix
// axes into concrete points, executes them across a worker pool, and
// emits the results document as JSON (default) or CSV.
//
// The default output is deterministic — identical spec, identical bytes,
// regardless of worker count or host — which is what TestGoldenSmoke
// pins against a golden file. Wall-clock timing is opt-in via -wall.
//
// Usage:
//
//	campaign -spec sweep.json [-workers N] [-check-every K] [-format json|csv] [-wall] [-o out]
//	campaign -spec sweep.json [-timeout D] [-stall D] [-retries N]
//	campaign -spec sweep.json -store dir    journal the run to a durable WAL
//	campaign -store dir -resume             finish what a crash interrupted
//	campaign -models
//
// With -store the run is journaled to a crash-safe log (see
// internal/store): the submission, every completed point outcome and the
// final completion each become a record, and outcomes already in the log
// are reused instead of recomputed. -resume replays the log, re-runs
// every campaign a previous crash or interrupt left unfinished —
// journaled points come from the rebuilt cache, only the remainder
// executes — and emits the most recent interrupted campaign's document,
// byte-identical to what an uninterrupted run would have produced.
//
// -timeout bounds each point's wall-clock attempt, -stall arms the
// no-simulated-time-progress watchdog, and -retries bounds the attempts
// of a transiently-failing point before the single-kernel degradation
// rerun kicks in (see the campaign package docs for the full policy).
//
// -profile-guided rewrites every sharded point to the "profiled"
// partitioner and pre-runs each unique point once single-kernel to
// measure its channel traffic and module dispatch counts; the sharded
// run then places modules by the measured weights. The rewrite is a
// pure function of the expansion, so the output stays deterministic
// across worker counts; the placement-cost counters
// (crossings_before/after, cut_weight_before/after) land in each
// point's outcome.
//
// Exit status: 0 on success, 1 if any point failed or any trace-
// equivalence spot check found a difference, 2 on usage or I/O errors —
// or, when a run ends with stalled points, 2 with the first structured
// stall diagnostic printed to stderr so a wedged model is diagnosable
// straight from CI logs.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		specPath   = fs.String("spec", "", "scenario spec file (JSON Spec or Set document, - for stdin)")
		workers    = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		checkEvery = fs.Int("check-every", 0, "trace-equivalence spot check every k-th point (0 = off)")
		maxPoints  = fs.Int("max-points", 10000, "largest accepted expansion")
		format     = fs.String("format", "json", "output format: json or csv")
		wall       = fs.Bool("wall", false, "include nondeterministic wall-clock timing")
		outPath    = fs.String("o", "", "output file (default stdout)")
		models     = fs.Bool("models", false, "list registered workload models and exit")
		timeout    = fs.Duration("timeout", 0, "per-point wall-clock deadline (0 = none)")
		stall      = fs.Duration("stall", 0, "stall watchdog window: no simulated-time progress for this long fails the attempt (0 = off)")
		retries    = fs.Int("retries", 0, "attempts per transiently-failing point before degradation (0 = 1, no retry)")
		metricsOut = fs.String("metrics", "", "write a final Prometheus exposition of the run's metrics to this file")
		simtrace   = fs.String("simtrace", "", "write the last sharded point's scheduler timeline as Chrome trace JSON to this file")
		storeDir   = fs.String("store", "", "durable campaign store directory: journal the run to a crash-safe WAL and reuse outcomes already in the log")
		resume     = fs.Bool("resume", false, "resume the campaigns a previous crash or interrupt left unfinished in -store and emit the most recent one's document")
		profGuided = fs.Bool("profile-guided", false, "rewrite sharded points to the profiled partitioner, pre-running each unique point single-kernel to measure its traffic")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *simtrace != "" {
		par.SetTraceCapture(4096)
	}

	if *models {
		for _, name := range scenario.Models() {
			m, _ := scenario.Lookup(name)
			fmt.Fprintf(stdout, "%-14s %v\n", m.Name, m.Keys)
		}
		return 0
	}
	if *resume && *storeDir == "" {
		fmt.Fprintln(stderr, "campaign: -resume requires -store")
		return 2
	}
	if (*specPath == "" && !*resume) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: campaign -spec <file> [-store dir] [-workers N] [-check-every K] [-format json|csv] [-wall] [-o out]")
		fmt.Fprintln(stderr, "       campaign -store <dir> -resume")
		return 2
	}
	if *format != "json" && *format != "csv" {
		fmt.Fprintf(stderr, "campaign: unknown format %q (want json or csv)\n", *format)
		return 2
	}

	var set scenario.Set
	if *specPath != "" {
		var data []byte
		var err error
		if *specPath == "-" {
			data, err = io.ReadAll(os.Stdin)
		} else {
			data, err = os.ReadFile(*specPath)
		}
		if err != nil {
			fmt.Fprintf(stderr, "campaign: %v\n", err)
			return 2
		}
		set, err = scenario.ParseSet(data)
		if err != nil {
			fmt.Fprintf(stderr, "campaign: %v\n", err)
			return 2
		}
	}

	opts := campaign.Options{
		Workers:       *workers,
		CheckEvery:    *checkEvery,
		MaxPoints:     *maxPoints,
		PointDeadline: *timeout,
		StallWindow:   *stall,
		MaxAttempts:   *retries,
		ProfileGuided: *profGuided,
	}
	var reg *metrics.Registry
	var storeMetrics *store.Metrics
	if *metricsOut != "" {
		reg = metrics.NewRegistry()
		sim.EnableMetrics(reg)
		core.EnableBridgeMetrics(reg)
		par.EnableMetrics(reg)
		netlist.EnableMetrics(reg)
		opts.Metrics = campaign.NewMetrics(reg)
		storeMetrics = store.NewMetrics(reg)
	}

	var res *campaign.Results
	if *storeDir != "" {
		st, rec, err := store.Open(*storeDir, store.Options{Metrics: storeMetrics})
		if err != nil {
			fmt.Fprintf(stderr, "campaign: %v\n", err)
			return 2
		}
		defer st.Close()
		opts.Store = st
		eng := campaign.NewEngine(opts)
		defer eng.Close()
		if *resume {
			res, err = resumeInterrupted(eng, rec, stderr)
		} else {
			// Reuse every outcome already journaled: a re-run of an
			// overlapping spec serves those points from the log.
			for hash, out := range rec.Points {
				eng.Cache().Put(hash, out)
			}
			var job *campaign.Job
			job, err = eng.Submit(set)
			if err == nil {
				res, err = job.Wait(context.Background())
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "campaign: %v\n", err)
			return 2
		}
		if res == nil {
			fmt.Fprintf(stderr, "campaign: no interrupted campaigns in %s\n", *storeDir)
			return 0
		}
	} else {
		var err error
		res, err = campaign.Run(context.Background(), set, opts)
		if err != nil {
			fmt.Fprintf(stderr, "campaign: %v\n", err)
			return 2
		}
	}
	if reg != nil {
		if err := writeFile(*metricsOut, reg.WritePrometheus); err != nil {
			fmt.Fprintf(stderr, "campaign: metrics: %v\n", err)
			return 2
		}
	}
	if *simtrace != "" {
		tl := par.LastTrace()
		if tl == nil {
			fmt.Fprintln(stderr, "campaign: simtrace: no timeline captured (no multi-shard point ran)")
			return 2
		}
		if err := writeFile(*simtrace, tl.WriteChromeTrace); err != nil {
			fmt.Fprintf(stderr, "campaign: simtrace: %v\n", err)
			return 2
		}
	}

	out := io.Writer(stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintf(stderr, "campaign: %v\n", err)
			return 2
		}
		defer f.Close()
		out = f
	}
	var err error
	switch *format {
	case "json":
		err = res.JSON(out, *wall)
	case "csv":
		err = res.WriteCSV(out, *wall)
	}
	if err != nil {
		fmt.Fprintf(stderr, "campaign: emitting results: %v\n", err)
		return 2
	}

	if res.Aggregate.Stalled > 0 {
		// A wedged model is an environment/model defect, not an ordinary
		// point failure: exit 2 and print the first structured diagnostic
		// so the stuck shard and frontier are readable from the log.
		for _, p := range res.Points() {
			if p.Stall != nil {
				fmt.Fprintf(stderr, "campaign: point %d (%s) stalled: %s\n", p.Index, p.Model, p.Stall)
				break
			}
		}
		fmt.Fprintf(stderr, "campaign: %d stalled points over %d points\n",
			res.Aggregate.Stalled, res.Aggregate.Points)
		return 2
	}
	if res.Aggregate.Errors > 0 || res.Aggregate.CheckFailures > 0 {
		fmt.Fprintf(stderr, "campaign: %d point errors, %d check failures over %d points\n",
			res.Aggregate.Errors, res.Aggregate.CheckFailures, res.Aggregate.Points)
		return 1
	}
	fmt.Fprintf(stderr, "campaign: %d points (%d unique, %d checked) across %v\n",
		res.Aggregate.Points, res.Aggregate.Unique, res.Aggregate.Checked, res.Aggregate.Models)
	return 0
}

// resumeInterrupted replays the journal into the engine, waits for every
// resumed campaign to settle, and returns the document of the most
// recently submitted campaign the crash had cut short — or nil when the
// log holds no interrupted work.
func resumeInterrupted(eng *campaign.Engine, rec *store.Recovered, stderr io.Writer) (*campaign.Results, error) {
	jobs, err := eng.Recover(rec)
	if err != nil {
		return nil, err
	}
	interrupted := map[string]bool{}
	for _, jr := range rec.Jobs {
		if jr.State == store.JobRunning {
			interrupted[jr.ID] = true
		}
	}
	var target *campaign.Job
	for _, j := range jobs {
		// Settle everything before the store closes, so every resumed
		// campaign's completion lands in the journal.
		if _, err := j.Wait(context.Background()); err != nil && interrupted[j.ID()] {
			return nil, fmt.Errorf("resuming %s: %w", j.ID(), err)
		}
		if interrupted[j.ID()] {
			target = j
		}
	}
	if target == nil {
		return nil, nil
	}
	fmt.Fprintf(stderr, "campaign: resumed %s (%d journaled points reused)\n", target.ID(), len(rec.Points))
	res, err := target.Wait(context.Background())
	if err != nil {
		return nil, err
	}
	return res, nil
}

// writeFile creates path and streams write into it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
