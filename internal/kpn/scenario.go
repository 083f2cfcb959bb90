package kpn

import (
	"context"
	"fmt"

	"repro/internal/netlist"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Scenario registry hook: a parameterized linear Kahn chain as a campaign
// model. Every per-stage rate and every payload derives from the spec's
// "seed" through the deterministic scenario RNG, so identical specs give
// identical traces across runs and worker counts.
func init() {
	scenario.Register(scenario.Model{
		Name:  "kpn",
		Keys:  []string{"stages", "depth", "tokens", "seed", "decoupled", "burst", "shards", "partitioner"},
		Run:   runScenario,
		Check: checkScenario,
	})
}

type chainParams struct {
	stages, depth, tokens int
	burst                 int
	decoupled             bool
	shards                int
	partitioner           string
	rateSeed, paySeed     int64
}

func chainConfig(p scenario.Params) (chainParams, error) {
	r := scenario.NewReader(p)
	c := chainParams{
		stages:      r.Int("stages", 3),
		depth:       r.Int("depth", 4),
		tokens:      r.Int("tokens", 50),
		burst:       r.Int("burst", 0),
		decoupled:   r.Bool("decoupled", true),
		shards:      r.Int("shards", 1),
		partitioner: r.String("partitioner", ""),
	}
	rng := scenario.Rand(r.Int64("seed", 1))
	c.rateSeed, c.paySeed = rng.Int63(), rng.Int63()
	if err := r.Err(); err != nil {
		return c, err
	}
	if c.stages < 2 || c.depth < 1 || c.tokens < 1 {
		return c, fmt.Errorf("kpn: want stages >= 2, depth >= 1, tokens >= 1")
	}
	if c.shards < 1 {
		return c, fmt.Errorf("kpn: shards must be >= 1")
	}
	if c.shards > c.stages {
		return c, fmt.Errorf("kpn: %d shards but the chain has only %d stages", c.shards, c.stages)
	}
	if c.shards > 1 && !c.decoupled {
		return c, fmt.Errorf("kpn: the reference (decoupled=false) build cannot be sharded")
	}
	if _, err := netlist.PartitionerByName(c.partitioner); err != nil {
		return c, err
	}
	return c, nil
}

// chainBuilder is a stages-long actor chain: stage 0 generates seeded
// payloads, middle stages transform, the last stage logs dated outputs.
// Per-stage delay schedules come from workload.Random over the derived
// rate seed. The sink's checksum lands in *sum (overwritten per run).
//
// With burst > 1 the chain becomes the burst-dominated variant: per-stage
// rates are constant (sampled once from the same schedule) and tokens move
// in chunks of up to burst through Chan.WriteBurst/ReadBurst — the bulk
// Smart-FIFO fast paths when decoupled, the equivalent scalar loop in
// reference mode, so Verify still pins date equality.
func chainBuilder(c chainParams, sum *uint64) Builder {
	if c.burst > 1 {
		return burstChainBuilder(c, sum)
	}
	return func(net *Network) {
		chans := make([]*Chan[uint32], c.stages-1)
		for i := range chans {
			chans[i] = Channel[uint32](net, fmt.Sprintf("c%d", i), c.depth)
		}
		actors := make([]*netlist.Module, c.stages)
		for s := 0; s < c.stages; s++ {
			s := s
			rate := workload.Random(c.rateSeed+int64(s), 6, 2*sim.NS)
			actors[s] = net.Actor(fmt.Sprintf("a%d", s), func(a *Actor) {
				acc := uint64(0)
				for i := 0; i < c.tokens; i++ {
					var v uint32
					if s == 0 {
						v = workload.WordAt(c.paySeed, i)
					} else {
						v = chans[s-1].Read()
					}
					a.Delay(rate(i) + sim.NS)
					if s < c.stages-1 {
						chans[s].Write(v*3 + uint32(s))
					} else {
						acc = workload.Checksum(acc, v)
						a.Logf("out %08x", v)
					}
				}
				if s == c.stages-1 {
					a.Logf("checksum %016x", acc)
					*sum = acc
				}
			})
		}
		for i, ch := range chans {
			ch.Bind(actors[i], actors[i+1])
		}
	}
}

// burstChainBuilder is the chunked chain: every stage moves tokens in
// chunks with a constant per-stage rate annotated between words, logging
// chunk-end dates at the sink.
func burstChainBuilder(c chainParams, sum *uint64) Builder {
	return func(net *Network) {
		chans := make([]*Chan[uint32], c.stages-1)
		for i := range chans {
			chans[i] = Channel[uint32](net, fmt.Sprintf("c%d", i), c.depth).WithBurst(c.burst)
		}
		actors := make([]*netlist.Module, c.stages)
		for s := 0; s < c.stages; s++ {
			s := s
			per := workload.Random(c.rateSeed+int64(s), 6, 2*sim.NS)(0) + sim.NS
			actors[s] = net.Actor(fmt.Sprintf("a%d", s), func(a *Actor) {
				buf := make([]uint32, c.burst)
				acc := uint64(0)
				for i := 0; i < c.tokens; {
					m := c.burst
					if c.tokens-i < m {
						m = c.tokens - i
					}
					chunk := buf[:m]
					if s == 0 {
						for j := range chunk {
							chunk[j] = workload.WordAt(c.paySeed, i+j)
						}
					} else {
						chans[s-1].ReadBurst(a, chunk, per)
					}
					a.Delay(per)
					if s < c.stages-1 {
						for j := range chunk {
							chunk[j] = chunk[j]*3 + uint32(s)
						}
						chans[s].WriteBurst(a, chunk, per)
						a.Delay(per)
					} else {
						for _, v := range chunk {
							acc = workload.Checksum(acc, v)
						}
						a.Logf("chunk %d sum %016x", i/c.burst, acc)
					}
					i += m
				}
				if s == c.stages-1 {
					a.Logf("checksum %016x", acc)
					*sum = acc
				}
			})
		}
		for i, ch := range chans {
			ch.Bind(actors[i], actors[i+1])
		}
	}
}

func runScenario(ctx context.Context, p scenario.Params) (scenario.Outcome, error) {
	c, err := chainConfig(p)
	if err != nil {
		return scenario.Outcome{}, err
	}
	impl := netlist.Plain
	if c.decoupled {
		impl = netlist.Smart
	}
	part, _ := netlist.PartitionerByName(c.partitioner) // validated by chainConfig
	// The profile-cache key: the chain's dated shape without its
	// placement. The adapter hands Elaborate's build to the Network.
	key := c
	key.shards, key.partitioner = 0, ""
	var checksum uint64
	b, net, err := netlist.Elaborate(ctx, key, netlist.Options{Shards: c.shards, Partitioner: part, Impl: impl},
		func() (*netlist.Graph, *Network) {
			net := New("kpn", c.decoupled)
			chainBuilder(c, &checksum)(net)
			return net.g, net
		})
	if err != nil {
		return scenario.Outcome{}, err
	}
	net.built, net.K = b, b.Kernels[0]
	runErr := net.RunCtx(ctx)
	stats := net.Stats()
	entries := net.Trace().Sorted()
	net.Shutdown()
	if runErr != nil {
		return scenario.Outcome{}, runErr
	}
	d := scenario.NewDigest()
	var simEnd sim.Time
	for _, e := range entries {
		d.Time(e.Date)
		d.Str(e.Msg)
		if e.Date > simEnd {
			simEnd = e.Date
		}
	}
	// Kernel-stat counters are schedule-dependent for sharded runs
	// (see scenario.Outcome.CtxSwitches); report them single-kernel only.
	ctxSw := stats.ContextSwitches
	if b.Shards() > 1 {
		ctxSw = 0
	}
	counters := map[string]uint64{
		"trace_entries": uint64(len(entries)),
		"tokens":        uint64(c.tokens),
		"shards":        uint64(b.Shards()),
		"crossings":     uint64(b.Crossings),
	}
	b.Placement.AddCounters(counters)
	return scenario.Outcome{
		SimEndNS:    int64(simEnd / sim.NS),
		CtxSwitches: ctxSw,
		Checksums:   []uint64{checksum},
		DatesHash:   d.Sum(),
		Counters:    counters,
	}, nil
}

// checkScenario runs the point's chain through Verify: the reference
// (regular FIFOs + Wait) versus the decoupled (Smart FIFOs + Inc) build
// must produce date-identical traces.
func checkScenario(_ context.Context, p scenario.Params) (string, error) {
	c, err := chainConfig(p)
	if err != nil {
		return "", err
	}
	var sum uint64 // Verify compares traces; the checksum slot is scratch
	return Verify("kpn", chainBuilder(c, &sum)), nil
}
