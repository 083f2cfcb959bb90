// Command parlat measures inter-shard latency: the wall-clock round-trip
// of one word across a ShardedFIFO request bridge and back over a
// response bridge, client and server on separate shards, while
// background load streams words between further shard pairs — the
// coordinator analogue of an inter-core ping/pong latency harness. The
// load lives on its own shard pairs deliberately: a global-barrier
// scheduler couples the measured pair to that unrelated work (every trip
// waits for rounds that also flush every load bridge and dispatch every
// working load shard, a cost that grows with system size), while the
// frontier-driven scheduler keeps each ping exchange local to the two
// shards and two bridges involved. That coupling is exactly the
// coordination cost the harness exists to expose.
//
// Each mode runs the identical model twice: once under the legacy
// all-shard barrier scheduler (Coordinator.SetBarrier) and once under
// the default asynchronous frontier-driven one. Per-round-trip wall
// times are reported as p50/p99/max microseconds; simulated dates must
// be identical between the two schedulers (dates_equal) — the latency
// difference is pure coordination cost, never model behaviour.
//
// Output is a human table, or one JSON document with -json (recorded in
// BENCH_parlat.json).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/sim"
)

// modeJSON is one scheduler's measurement.
type modeJSON struct {
	Mode       string  `json:"mode"`
	RoundTrips int     `json:"round_trips"`
	P50us      float64 `json:"p50_us"`
	P99us      float64 `json:"p99_us"`
	MaxUs      float64 `json:"max_us"`
	WallMS     float64 `json:"wall_ms"`
	// Coordinator telemetry for the reported run: rendezvous/barrier
	// dispatches, kernel advances, bridge exchanges.
	Rounds   uint64 `json:"rounds"`
	Advances uint64 `json:"advances"`
	Flushes  uint64 `json:"flushes"`
}

// reportJSON is the -json document.
type reportJSON struct {
	Benchmark  string     `json:"benchmark"`
	RoundTrips int        `json:"round_trips"`
	LoadWords  int        `json:"load_words"`
	LoadPairs  int        `json:"load_pairs"`
	Warmup     int        `json:"warmup_discarded"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	Modes      []modeJSON `json:"modes"`
	DatesEqual bool       `json:"dates_equal"`
	// AsyncP50NotHigher compares the schedulers' best trials and is the
	// CI gate; AsyncP99Lower is reported only: the tail of one run flips
	// with host noise on a runner with no spare cores.
	AsyncP50NotHigher bool `json:"async_p50_not_higher"`
	AsyncP99Lower     bool `json:"async_p99_lower"`
}

// run executes the ping/pong model once and returns the per-round-trip
// wall times and the client's dated completion log (the determinism
// witness compared across schedulers).
func run(n, load, pairs int, barrier bool) (lat []time.Duration, dates []sim.Time, st par.Stats) {
	kc := sim.NewKernel("client")
	ks := sim.NewKernel("server")
	req := core.NewSharded[int](kc, ks, "req", 8)
	rsp := core.NewSharded[int](ks, kc, "rsp", 8)

	lat = make([]time.Duration, 0, n)
	dates = make([]sim.Time, 0, n)
	kc.Thread("client", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			p.Inc(10 * sim.NS)
			t0 := time.Now()
			req.Writer().Write(i)
			v := rsp.Reader().Read()
			lat = append(lat, time.Since(t0))
			if v != i^0x5a {
				panic(fmt.Sprintf("parlat: round trip %d returned %d", i, v))
			}
			dates = append(dates, p.LocalTime())
		}
	})
	ks.Thread("server", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			v := req.Reader().Read()
			p.Inc(2 * sim.NS)
			rsp.Writer().Write(v ^ 0x5a)
		}
	})
	mkLoad := func(k *sim.Kernel, tag string, f *core.ShardedFIFO[int], peer *sim.Kernel) {
		k.Thread("load.src."+tag, func(p *sim.Process) {
			for i := 0; i < load; i++ {
				p.Inc(3 * sim.NS)
				f.Writer().Write(i)
			}
		})
		peer.Thread("load.sink."+tag, func(p *sim.Process) {
			for i := 0; i < load; i++ {
				f.Reader().Read()
				p.Inc(4 * sim.NS)
			}
		})
	}
	c := par.NewCoordinator()
	c.AddShard(kc)
	c.AddShard(ks)
	for _, b := range []*core.ShardedFIFO[int]{req, rsp} {
		c.AddBridge(b)
	}
	// Background load: `pairs` shard pairs stream words at each other in
	// both directions, each pair on its own two shards. The load does
	// not touch the measured pair at all — which is the point: a
	// global-barrier scheduler still couples every trip to it (each
	// round flushes every bridge and dispatches every working shard),
	// while the frontier-driven scheduler keeps the ping exchange local.
	for pi := 0; pi < pairs; pi++ {
		kla := sim.NewKernel(fmt.Sprintf("load.%d.a", pi))
		klb := sim.NewKernel(fmt.Sprintf("load.%d.b", pi))
		ldAB := core.NewSharded[int](kla, klb, fmt.Sprintf("load.%d.ab", pi), 64)
		ldBA := core.NewSharded[int](klb, kla, fmt.Sprintf("load.%d.ba", pi), 64)
		mkLoad(kla, fmt.Sprintf("%d.ab", pi), ldAB, klb)
		mkLoad(klb, fmt.Sprintf("%d.ba", pi), ldBA, kla)
		c.AddShard(kla)
		c.AddShard(klb)
		c.AddBridge(ldAB)
		c.AddBridge(ldBA)
	}
	c.SetBarrier(barrier)
	c.Run(sim.RunForever)
	st = c.Stats()
	c.Shutdown()
	return lat, dates, st
}

// stats reduces round-trip samples (after warmup discard) to the report
// quantiles via the shared nearest-rank helper.
func stats(lat []time.Duration, warmup int) (p50, p99, max float64) {
	if warmup >= len(lat) {
		warmup = 0
	}
	us := make([]float64, 0, len(lat)-warmup)
	for _, d := range lat[warmup:] {
		us = append(us, float64(d.Nanoseconds())/1e3)
	}
	q := metrics.Quantiles(us, 0.5, 0.99, 1.0)
	return q[0], q[1], q[2]
}

func datesEqual(a, b []sim.Time) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func main() { os.Exit(run1(os.Args[1:])) }

func run1(args []string) int {
	fs := flag.NewFlagSet("parlat", flag.ExitOnError)
	var (
		n        = fs.Int("n", 2000, "measured round trips per scheduler")
		load     = fs.Int("load", 100000, "background words per load stream (sized so the load spans the whole measured run)")
		pairs    = fs.Int("pairs", 4, "background load shard pairs (system size beyond the measured pair)")
		warmup   = fs.Int("warmup", 50, "leading round trips discarded from the stats")
		best     = fs.Int("best", 3, "trials per scheduler; the lowest-p50 trial is reported")
		jsonOut  = fs.Bool("json", false, "emit one JSON document on stdout")
		simtrace = fs.String("simtrace", "", "write the final run's scheduler timeline as Chrome trace JSON to this file")
	)
	fs.Parse(args)
	if *simtrace != "" {
		par.SetTraceCapture(4096)
	}

	// One discarded warm-up run per scheduler before any measurement: the
	// first run in a fresh process absorbs allocator growth, and whichever
	// scheduler measured first would otherwise be charged for it.
	run(*n/4+1, *load/4+1, *pairs, true)
	run(*n/4+1, *load/4+1, *pairs, false)

	measure := func(barrier bool, name string) (modeJSON, []sim.Time) {
		var bestM modeJSON
		var bestDates []sim.Time
		for r := 0; r < *best; r++ {
			start := time.Now()
			lat, dates, st := run(*n, *load, *pairs, barrier)
			wall := time.Since(start)
			p50, p99, max := stats(lat, *warmup)
			m := modeJSON{Mode: name, RoundTrips: len(lat), P50us: p50, P99us: p99, MaxUs: max,
				WallMS: float64(wall.Microseconds()) / 1e3,
				Rounds: st.Rounds, Advances: st.Advances, Flushes: st.Flushes}
			if r == 0 || m.P50us < bestM.P50us {
				bestM, bestDates = m, dates
			}
		}
		return bestM, bestDates
	}

	barrierM, barrierDates := measure(true, "barrier")
	asyncM, asyncDates := measure(false, "async")
	eq := datesEqual(barrierDates, asyncDates)

	rep := reportJSON{
		Benchmark:  "parlat",
		RoundTrips: *n, LoadWords: *load, LoadPairs: *pairs, Warmup: *warmup,
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		Modes:             []modeJSON{barrierM, asyncM},
		DatesEqual:        eq,
		AsyncP50NotHigher: asyncM.P50us <= barrierM.P50us,
		AsyncP99Lower:     asyncM.P99us < barrierM.P99us,
	}
	if *jsonOut {
		if err := campaign.WriteJSON(os.Stdout, rep); err != nil {
			fmt.Fprintf(os.Stderr, "parlat: %v\n", err)
			return 1
		}
	} else {
		fmt.Printf("Inter-shard round-trip latency, %d trips under load (%d pairs x %d words/stream), GOMAXPROCS %d:\n\n",
			*n, *pairs, *load, rep.GOMAXPROCS)
		for _, m := range rep.Modes {
			fmt.Printf("%-8s  p50 %8.1fus  p99 %8.1fus  max %8.1fus  (wall %8.3fms, rounds %d, advances %d, flushes %d)\n",
				m.Mode, m.P50us, m.P99us, m.MaxUs, m.WallMS, m.Rounds, m.Advances, m.Flushes)
		}
		fmt.Printf("\nsimulated dates identical across schedulers: %v\n", eq)
	}
	if !eq {
		fmt.Fprintln(os.Stderr, "parlat: ACCURACY VIOLATION: schedulers disagree on dates")
		return 1
	}
	if *simtrace != "" {
		if err := dumpTrace(*simtrace); err != nil {
			fmt.Fprintf(os.Stderr, "parlat: simtrace: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "parlat: scheduler timeline written to %s (open in chrome://tracing or ui.perfetto.dev)\n", *simtrace)
	}
	return 0
}

// dumpTrace writes the most recent captured scheduler timeline to path.
func dumpTrace(path string) error {
	tl := par.LastTrace()
	if tl == nil {
		return fmt.Errorf("no timeline captured")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tl.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
