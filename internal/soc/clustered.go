package soc

import (
	"context"
	"fmt"
	"time"

	"repro/internal/accel"
	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// RunClustered builds and executes the sharding-friendly variant of the
// case study: a multi-cluster SoC whose stream traffic crosses cluster
// boundaries over Smart-FIFO bridges, declared as an internal/netlist
// graph and partitioned across `shards` kernels by a pluggable netlist
// partitioner (cfg.Partitioner; roundrobin by default, reproducing the
// historical cluster-modulo mapping).
//
// The model has cfg.Pipelines clusters in a ring. Pipeline i's front half
// (generator → c1 → scale) lives on cluster i; its back half
// (fir → c3 → sink) lives on cluster (i+1) mod C, with the middle hop a
// netlist channel cut at the cluster boundary — Build inserts a
// core.ShardedFIFO bridge wherever the partitioner separates the two
// halves. Each cluster has its own memory-mapped side — bus, register
// files and an embedded control core that programs every job up front
// (consumers first), then polls its local stages' status and the sink's
// input FIFO fill level (the §III-C monitor interface) until the cluster
// is idle. A cluster is one netlist colocation group: its bus couples the
// control core to the stages synchronously.
//
// The same model runs on 1 kernel or on N: the stream dates, checksums
// and job completion dates are identical (pinned by
// TestClusteredShardEquivalence) because every cross-cluster interaction
// is a dated Kahn channel. Only the wall-clock schedule — and therefore
// the monitor's MaxLevels samples, which observe in-flight state — may
// differ.
//
// The clustered variant always uses Smart FIFOs and ignores the UseNoC,
// WithDMA and UseIRQ knobs: it is the scaling axis of the reproduction,
// not the accuracy-ablation axis.
func RunClustered(cfg Config, shards int) Result {
	res, err := RunClusteredCtx(context.Background(), cfg, shards)
	if err != nil {
		// A background context with no stall window never aborts, so
		// this is a configuration the netlist cannot build.
		panic(fmt.Sprintf("soc: %v", err))
	}
	return res
}

// RunClusteredCtx is RunClustered under the par supervisor: the run is
// interrupted when ctx ends or the stall watchdog it carries
// (par.WithStallWindow) fires, returning the guard's error with all
// model goroutines shut down. A configuration the netlist cannot build
// is returned as an error too.
func RunClusteredCtx(ctx context.Context, cfg Config, shards int) (Result, error) {
	cfg.fill()
	nClusters := cfg.Pipelines
	if shards < 1 {
		shards = 1
	}
	if shards > nClusters {
		panic(fmt.Sprintf("soc: %d shards but only %d clusters (a cluster is one colocation unit)", shards, nClusters))
	}
	part, err := netlist.PartitionerByName(cfg.Partitioner)
	if err != nil {
		panic(fmt.Sprintf("soc: %v", err))
	}

	// The profile-cache key: everything that fixes the dates. The
	// partitioner never changes them, and the variant is Smart-only.
	key := cfg
	key.Mode, key.Partitioner = SmartFIFOs, ""
	built, st, err := netlist.Elaborate(ctx, key, netlist.Options{Shards: shards, Partitioner: part, Impl: netlist.Smart},
		func() (*netlist.Graph, *clusteredState) { return clusteredGraph(cfg) })
	if err != nil {
		return Result{}, err
	}

	res := Result{
		Mode:      SmartFIFOs,
		Shards:    built.Shards(),
		MaxLevels: make([]uint32, nClusters),
		Placement: built.Placement,
	}
	start := time.Now()
	if err := built.RunGuarded(ctx, sim.RunForever); err != nil {
		built.Shutdown()
		return Result{}, err
	}
	res.Wall = time.Since(start)
	res.Stats = built.Stats()
	res.Advances = built.Advances()
	res.Crossings = built.Crossings
	for i := 0; i < nClusters; i++ {
		res.Checksums = append(res.Checksums, st.sinks[i].Checksum())
		res.JobDates = append(res.JobDates, st.sinks[i].JobDates())
		res.MaxLevels[i] = st.maxLevels[(i+1)%nClusters]
	}
	for _, b := range st.buses {
		res.BusAccesses += b.Accesses()
	}
	for _, dates := range res.JobDates {
		for _, d := range dates {
			if d > res.SimEnd {
				res.SimEnd = d
			}
		}
	}
	built.Shutdown()
	return res, nil
}

// clusteredState is the host-side bookkeeping a clustered graph's
// modules write into.
type clusteredState struct {
	buses     []*bus.Bus
	sinks     []*accel.Accel // sink of pipeline i (homed on cluster (i+1)%C)
	maxLevels []uint32       // indexed by hosting cluster
}

// clusteredGraph wires the multi-cluster graph and its state. It is
// netlist.Elaborate's declare function, called once per copy of the
// model. cfg must be filled.
func clusteredGraph(cfg Config) (*netlist.Graph, *clusteredState) {
	nClusters := cfg.Pipelines
	g := netlist.New("soc")
	group := func(c int) string { return fmt.Sprintf("cl%d", c%nClusters) }

	// Middle hops: pipeline i, cluster i → cluster (i+1)%C.
	mids := make([]*netlist.Chan[uint32], nClusters)
	for i := 0; i < nClusters; i++ {
		mids[i] = netlist.AddChan[uint32](g, fmt.Sprintf("p%d.mid", i), cfg.FIFODepth)
	}

	// Per-cluster register layout on the local bus.
	const (
		genBase   = 0x1000
		scaleBase = 0x1010
		firBase   = 0x1020
		sinkBase  = 0x1030
	)

	buses := make([]*bus.Bus, nClusters)
	sinks := make([]*accel.Accel, nClusters)
	maxLevels := make([]uint32, nClusters)

	// First pass: the front halves (bus, gen → c1 → scale → mid).
	for c := 0; c < nClusters; c++ {
		c := c
		front := g.Structural(fmt.Sprintf("cl%d.front", c), nil).InGroup(group(c))
		midOut := mids[c].Output(front)
		front.Elab(func(k *sim.Kernel) {
			buses[c] = bus.NewBus(k, fmt.Sprintf("cl%d.bus", c), sim.NS)
			name := func(s string) string { return fmt.Sprintf("p%d.%s", c, s) }
			c1 := core.NewSmart[uint32](k, name("c1"), cfg.FIFODepth)
			gen := accel.New(k, name("gen"), accel.Config{
				Kind: accel.Generator, Out: c1, WordLat: 3 * sim.NS, Seed: cfg.Seed + int64(c),
			})
			scale := accel.New(k, name("scale"), accel.Config{
				Kind: accel.Scale, In: c1, Out: midOut.End(), WordLat: 2 * sim.NS, Factor: 3,
			})
			buses[c].Map(gen.Name(), genBase, accel.NumRegs, gen.Regs())
			buses[c].Map(scale.Name(), scaleBase, accel.NumRegs, scale.Regs())
		})
	}
	// Second pass: the back halves (mid → fir → c3 → sink), homed one
	// cluster downstream.
	for i := 0; i < nClusters; i++ {
		i := i
		home := (i + 1) % nClusters
		back := g.Structural(fmt.Sprintf("cl%d.back", home), nil).InGroup(group(home))
		midIn := mids[i].Input(back)
		back.Elab(func(k *sim.Kernel) {
			name := func(s string) string { return fmt.Sprintf("p%d.%s", i, s) }
			c3 := core.NewSmart[uint32](k, name("c3"), cfg.FIFODepth)
			fir := accel.New(k, name("fir"), accel.Config{
				Kind: accel.FIR, In: midIn.End(), Out: c3, WordLat: 2 * sim.NS,
			})
			sink := accel.New(k, name("sink"), accel.Config{
				Kind: accel.Sink, In: c3, WordLat: 4 * sim.NS,
			})
			buses[home].Map(fir.Name(), firBase, accel.NumRegs, fir.Regs())
			buses[home].Map(sink.Name(), sinkBase, accel.NumRegs, sink.Regs())
			sinks[i] = sink
		})
	}

	// Control cores: one per cluster, driving the four stages homed there.
	for c := 0; c < nClusters; c++ {
		c := c
		g.Thread(fmt.Sprintf("cl%d.ctrl", c), func(p *sim.Process) {
			in := bus.NewInitiator(p, buses[c], cfg.Quantum)
			words := uint32(cfg.WordsPerJob)
			// Program every job up front, consumers first, so job
			// back-to-back timing is carried by the streams alone.
			for _, base := range []uint32{sinkBase, firBase, scaleBase, genBase} {
				in.WriteWord(base+accel.RegWords, words)
				for j := 0; j < cfg.Jobs; j++ {
					in.WriteWord(base+accel.RegCtrl, 1)
				}
			}
			// Poll until the cluster is idle, sampling the sink's input
			// fill level for dynamic performance tuning (§III-C).
			for {
				idle := true
				for _, base := range []uint32{genBase, scaleBase, firBase, sinkBase} {
					if in.ReadWord(base+accel.RegStatus) != 0 {
						idle = false
					}
				}
				if lvl := in.ReadWord(sinkBase + accel.RegInLevel); lvl > maxLevels[c] {
					maxLevels[c] = lvl
				}
				if idle {
					break
				}
				p.Inc(cfg.PollPeriod)
			}
		}).InGroup(group(c))
	}

	return g, &clusteredState{buses: buses, sinks: sinks, maxLevels: maxLevels}
}
