package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fifo"
	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/store"
)

// The cost ladder. Each rung times one layer's primitive by calling the
// layer's public API in a loop: one discarded warm-up batch, then
// rungBatches timed batches, reported as the median cost per primitive.
// A rung returns the wall time of the measured region only — kernel and
// channel construction happen before the clock starts, as in the
// repository's testing.B benchmarks the rungs are modelled on.

const rungBatches = 11

// rung is one ladder entry: batch(n) runs the primitive n times and
// returns the time the measured region took.
type rung struct {
	metric string // catalogue name; unit gives the scale (ns or us per primitive)
	n      int    // primitives per batch, sized for a batch of a few milliseconds
	batch  func(n int) time.Duration
}

// runKernel times k.Run to quiescence and reaps the kernel.
func runKernel(k *sim.Kernel) time.Duration {
	t0 := time.Now()
	k.Run(sim.RunForever)
	d := time.Since(t0)
	k.Shutdown()
	return d
}

// switchBatch: one Process.Wait round trip — the thread context switch
// the Smart FIFO exists to avoid (process.go's two-channel handoff).
func switchBatch(n int) time.Duration {
	k := sim.NewKernel("rung")
	k.Thread("p", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			p.Wait(sim.NS)
		}
	})
	return runKernel(k)
}

// incBatch: the decoupled alternative, a local-time increment.
func incBatch(n int) time.Duration {
	k := sim.NewKernel("rung")
	k.Thread("p", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			p.Inc(sim.NS)
		}
		p.Sync()
	})
	return runKernel(k)
}

// methodBatch: one run-to-completion method activation re-armed by a
// timed trigger — what the NoC routers cost per activation.
func methodBatch(n int) time.Duration {
	k := sim.NewKernel("rung")
	i := 0
	k.Method("m", func(p *sim.Process) {
		if i++; i < n {
			p.NextTrigger(sim.NS)
		}
	})
	return runKernel(k)
}

// smartPair runs n write+read pairs through a Smart FIFO of the given
// depth with decoupled sides. Deep, the sides never block (the scalar
// fast path); at depth 1 every access blocks (the blocking path plus
// two context switches per word).
func smartPair(depth int) func(n int) time.Duration {
	return func(n int) time.Duration {
		k := sim.NewKernel("rung")
		f := core.NewSmart[int](k, "f", depth)
		k.Thread("writer", func(p *sim.Process) {
			for i := 0; i < n; i++ {
				f.Write(i)
				p.Inc(sim.NS)
			}
		})
		k.Thread("reader", func(p *sim.Process) {
			for i := 0; i < n; i++ {
				f.Read()
				p.Inc(sim.NS)
			}
		})
		return runKernel(k)
	}
}

const burstChunk = 256

// burstBatch moves n words through a Smart FIFO in 256-word
// WriteBurst/ReadBurst chunks (the run-based bulk path).
func burstBatch(n int) time.Duration {
	k := sim.NewKernel("rung")
	f := core.NewSmart[uint32](k, "f", 1<<12)
	wbuf, rbuf := make([]uint32, burstChunk), make([]uint32, burstChunk)
	k.Thread("writer", func(p *sim.Process) {
		for done := 0; done < n; done += burstChunk {
			f.WriteBurst(wbuf, sim.NS)
			p.Inc(sim.NS)
		}
	})
	k.Thread("reader", func(p *sim.Process) {
		for done := 0; done < n; done += burstChunk {
			f.ReadBurst(rbuf, sim.NS)
			p.Inc(sim.NS)
		}
	})
	return runKernel(k)
}

// bridgeBatch moves n words across a ShardedFIFO whose two endpoints
// sit on one kernel, exchanging with Flush at 100 µs safe points: the
// bridge's bulk path and flush cost without any coordinator.
func bridgeBatch(n int) time.Duration {
	k := sim.NewKernel("rung")
	f := core.NewSharded[uint32](k, k, "f", 1<<12)
	wbuf, rbuf := make([]uint32, burstChunk), make([]uint32, burstChunk)
	k.Thread("writer", func(p *sim.Process) {
		w := f.Writer()
		for done := 0; done < n; done += burstChunk {
			w.WriteBurst(wbuf, sim.NS)
			p.Inc(sim.NS)
		}
	})
	k.Thread("reader", func(p *sim.Process) {
		r := f.Reader()
		for done := 0; done < n; done += burstChunk {
			r.ReadBurst(rbuf, sim.NS)
			p.Inc(sim.NS)
		}
	})
	t0 := time.Now()
	var end sim.Time
	for {
		end += 100 * sim.US
		k.Run(end)
		if !f.Flush() && len(k.Blocked()) == 0 {
			break
		}
	}
	d := time.Since(t0)
	k.Shutdown()
	return d
}

// refBatch: the untimed reference FIFO, one write+read pair.
func refBatch(n int) time.Duration {
	k := sim.NewKernel("rung")
	f := fifo.New[int](k, "f", 1<<16)
	k.Thread("writer", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			f.Write(i)
		}
	})
	k.Thread("reader", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			f.Read()
		}
	})
	return runKernel(k)
}

// syncBatch: the sync-on-every-access reference FIFO (§IV-C baseline)
// under decoupled callers — one synchronization per access.
func syncBatch(n int) time.Duration {
	k := sim.NewKernel("rung")
	f := fifo.NewSync[int](k, "f", 1<<12)
	k.Thread("writer", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			f.Write(i)
			p.Inc(sim.NS)
		}
	})
	k.Thread("reader", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			f.Read()
			p.Inc(sim.NS)
		}
	})
	return runKernel(k)
}

// buildBatch: Graph.Build plus Shutdown of a 3-module, 2-channel graph —
// what every tiny campaign point pays before and after its kernel run.
func buildBatch(n int) time.Duration {
	body := func(*sim.Process) {}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		g := netlist.New("rung")
		c1 := netlist.AddChan[uint32](g, "c1", 4)
		c2 := netlist.AddChan[uint32](g, "c2", 4)
		a, b, c := g.Thread("a", body), g.Thread("b", body), g.Thread("c", body)
		c1.Output(a)
		c1.Input(b)
		c2.Output(b)
		c2.Input(c)
		g.MustBuild(netlist.Options{}).Shutdown()
	}
	return time.Since(t0)
}

// kernelRungs is the ladder's in-kernel part, in layer order.
var kernelRungs = []rung{
	{"sim.switch_ns", 20000, switchBatch},
	{"sim.inc_ns", 2 << 20, incBatch},
	{"sim.method_ns", 100000, methodBatch},
	{"core.smart_op_ns", 1 << 18, smartPair(1 << 16)},
	{"core.smart_block_ns", 8192, smartPair(1)},
	{"core.burst_word_ns", 1 << 20, burstBatch},
	{"core.bridge_word_ns", 1 << 19, bridgeBatch},
	{"fifo.ref_op_ns", 1 << 18, refBatch},
	{"fifo.sync_op_ns", 8192, syncBatch},
	{"netlist.build_us", 500, buildBatch},
}

// measureRung runs the warm-up and the timed batches of r and returns
// the median cost of one primitive in nanoseconds. At smoke-test size
// it runs one short batch.
func measureRung(r rung, tiny bool) float64 {
	n, batches := r.n, rungBatches
	if tiny {
		n, batches = max(r.n/64, burstChunk), 1
	}
	r.batch(n)
	per := make([]float64, batches)
	for i := range per {
		per[i] = float64(r.batch(n).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// roundTrips measures the inter-shard round trip: one word across a
// ShardedFIFO request bridge and back over a response bridge, client and
// server on separate kernels under a par.Coordinator (the parlat model
// without background load). It returns the per-trip wall times after
// discarding the first `discard`, and the coordinator's counters.
func roundTrips(n, discard int) ([]float64, par.Stats, error) {
	kc, ks := sim.NewKernel("client"), sim.NewKernel("server")
	req := core.NewSharded[int](kc, ks, "req", 8)
	rsp := core.NewSharded[int](ks, kc, "rsp", 8)
	lat := make([]float64, 0, n)
	bad := -1
	kc.Thread("client", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			p.Inc(10 * sim.NS)
			t0 := time.Now()
			req.Writer().Write(i)
			v := rsp.Reader().Read()
			lat = append(lat, us(time.Since(t0)))
			if v != i^0x5a && bad < 0 {
				bad = i
			}
		}
	})
	ks.Thread("server", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			v := req.Reader().Read()
			p.Inc(2 * sim.NS)
			rsp.Writer().Write(v ^ 0x5a)
		}
	})
	c := par.NewCoordinator()
	c.AddShard(kc)
	c.AddShard(ks)
	c.AddBridge(req)
	c.AddBridge(rsp)
	c.Run(sim.RunForever)
	st := c.Stats()
	c.Shutdown()
	if bad >= 0 {
		return nil, st, fmt.Errorf("round trip %d returned the wrong word", bad)
	}
	if len(lat) != n {
		return nil, st, fmt.Errorf("only %d of %d round trips completed", len(lat), n)
	}
	return lat[discard:], st, nil
}

// sweepOutcome is a representative journaled point outcome for the
// store rungs.
var sweepOutcome = scenario.Outcome{
	SimEndNS: 4412, CtxSwitches: 1234, Checksums: []uint64{0x9e3779b97f4a7c15},
	DatesHash: "4:0123456789abcdef", Counters: map[string]uint64{"words": 400, "blocks": 4, "shards": 1},
}

// storeRungs times the WAL append path on a journal under dir: one
// appender making each record durable (PointCompleted + Sync), and four
// concurrent appenders doing the same — the case group commit should
// make cheaper per record. Microseconds per record.
func storeRungs(dir string, batches int) (single, batched float64, err error) {
	const n, appenders = 32, 4
	measure := func(workers int) (float64, error) {
		d, err := os.MkdirTemp(dir, "wal-rung-")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(d)
		st, _, err := store.Open(d, store.Options{})
		if err != nil {
			return 0, err
		}
		defer st.Close()
		batch := func() (time.Duration, error) {
			var wg sync.WaitGroup
			errs := make([]error, workers)
			t0 := time.Now()
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < n/workers; i++ {
						if err := st.PointCompleted(fmt.Sprintf("%04x%012x", w, i), &sweepOutcome); err != nil {
							errs[w] = err
							return
						}
						if err := st.Sync(); err != nil {
							errs[w] = err
							return
						}
					}
				}()
			}
			wg.Wait()
			d := time.Since(t0)
			for _, e := range errs {
				if e != nil {
					return 0, e
				}
			}
			return d, nil
		}
		if _, err := batch(); err != nil {
			return 0, err
		}
		per := make([]float64, batches)
		for i := range per {
			d, err := batch()
			if err != nil {
				return 0, err
			}
			per[i] = us(d) / n
		}
		return median(per), nil
	}
	if single, err = measure(1); err != nil {
		return 0, 0, fmt.Errorf("store rung: %w", err)
	}
	if batched, err = measure(appenders); err != nil {
		return 0, 0, fmt.Errorf("store rung: %w", err)
	}
	return single, batched, nil
}

// campaignRungs times the layers a cache-hit campaign still runs, per
// point of the 168-point sweep set: scenario parse+expand+hash, a
// campaign.Run served entirely from a primed cache, and the results
// document emission. Microseconds per point.
func campaignRungs(doc []byte, batches int) (expand, warm, emit float64, err error) {
	parse := func() (scenario.Set, int, error) {
		set, err := scenario.ParseSet(doc)
		if err != nil {
			return set, 0, err
		}
		pts, err := set.Expand()
		return set, len(pts), err
	}
	set, points, err := parse()
	if err != nil {
		return 0, 0, 0, fmt.Errorf("campaign rung: %w", err)
	}
	per := make([]float64, batches)
	for i := range per {
		t0 := time.Now()
		if _, _, err := parse(); err != nil {
			return 0, 0, 0, fmt.Errorf("campaign rung: %w", err)
		}
		per[i] = us(time.Since(t0)) / float64(points)
	}
	expand = median(per)

	opt := campaign.Options{Cache: campaign.NewCache()}
	res, err := campaign.Run(context.Background(), set, opt) // primes the cache
	if err != nil {
		return 0, 0, 0, fmt.Errorf("campaign rung: %w", err)
	}
	if res.Aggregate.Errors != 0 {
		return 0, 0, 0, fmt.Errorf("campaign rung: %d of %d priming points failed", res.Aggregate.Errors, points)
	}
	for i := range per {
		t0 := time.Now()
		res, err = campaign.Run(context.Background(), set, opt)
		per[i] = us(time.Since(t0)) / float64(points)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("campaign rung: %w", err)
		}
		if res.Timing == nil || res.Timing.CacheHits != points {
			return 0, 0, 0, fmt.Errorf("campaign rung: warm run was not served from the cache")
		}
	}
	warm = median(per)

	var buf bytes.Buffer
	for i := range per {
		buf.Reset()
		t0 := time.Now()
		err := res.JSON(&buf, false)
		per[i] = us(time.Since(t0)) / float64(points)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("campaign rung: %w", err)
		}
	}
	return expand, warm, median(per), nil
}
