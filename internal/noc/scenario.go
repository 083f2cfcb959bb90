package noc

import (
	"context"
	"fmt"

	"repro/internal/netlist"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Scenario registry hook: a mesh streaming workload as a campaign model —
// N producer/consumer pairs crossing a mesh through packetizing NIs, with
// rates and payloads derived from the spec's "seed" through the
// deterministic scenario RNG.
//
// The workload is declared as a netlist graph of mesh islands. A mesh and
// its stream endpoints form ONE colocation unit: the routers and NIs are
// non-decoupled method processes whose arbitration depends on same-date
// delta ordering, which no barrier protocol can reproduce across kernels
// — the paper's own point that the NoC is the globally-synchronized part
// of the model ("NoC routers continue to use regular FIFOs"). The model
// scales out with the "meshes" parameter instead: independent replicated
// islands, partitioned across shards as whole units — trivially
// date-exact at any shard count.
func init() {
	scenario.Register(scenario.Model{
		Name: "noc",
		Keys: []string{"width", "height", "streams", "packet_len", "words",
			"fifo_depth", "cycle_ns", "seed", "decoupled", "meshes", "shards", "partitioner"},
		Run:   runScenario,
		Check: checkScenario,
	})
}

type streamParams struct {
	width, height, streams int
	packetLen, words       int
	fifoDepth              int
	cycle                  sim.Time
	decoupled              bool
	meshes                 int
	shards                 int
	partitioner            string
	seeds                  []int64 // rateSeed, paySeed per island
}

func streamConfig(p scenario.Params) (streamParams, error) {
	r := scenario.NewReader(p)
	c := streamParams{
		width:       r.Int("width", 2),
		height:      r.Int("height", 2),
		streams:     r.Int("streams", 1),
		packetLen:   r.Int("packet_len", 4),
		words:       r.Int("words", 32),
		fifoDepth:   r.Int("fifo_depth", 4),
		cycle:       r.Time("cycle_ns", sim.NS),
		decoupled:   r.Bool("decoupled", true),
		meshes:      r.Int("meshes", 1),
		shards:      r.Int("shards", 1),
		partitioner: r.String("partitioner", ""),
	}
	rng := scenario.Rand(r.Int64("seed", 1))
	if c.meshes >= 1 {
		// Island 0 draws the same two seeds the pre-netlist model drew,
		// so single-island digests are unchanged.
		for i := 0; i < c.meshes; i++ {
			c.seeds = append(c.seeds, rng.Int63(), rng.Int63())
		}
	}
	if err := r.Err(); err != nil {
		return c, err
	}
	if c.width < 1 || c.height < 1 {
		return c, fmt.Errorf("noc: bad mesh dimensions %dx%d", c.width, c.height)
	}
	if c.streams < 1 || c.streams > c.width {
		return c, fmt.Errorf("noc: streams (%d) must be in 1..width (%d)", c.streams, c.width)
	}
	if c.packetLen < 1 || c.words < 1 || c.words%c.packetLen != 0 {
		return c, fmt.Errorf("noc: words (%d) must be a positive multiple of packet_len (%d)", c.words, c.packetLen)
	}
	if c.fifoDepth < 1 {
		return c, fmt.Errorf("noc: fifo_depth must be >= 1")
	}
	if c.meshes < 1 {
		return c, fmt.Errorf("noc: meshes must be >= 1")
	}
	if c.shards < 1 {
		return c, fmt.Errorf("noc: shards must be >= 1")
	}
	if c.shards > c.meshes {
		return c, fmt.Errorf("noc: %d shards but only %d mesh islands (a mesh and its streams must share a kernel; raise 'meshes' to shard)",
			c.shards, c.meshes)
	}
	if c.shards > 1 && !c.decoupled {
		return c, fmt.Errorf("noc: the reference (decoupled=false) build cannot be sharded")
	}
	if _, err := netlist.PartitionerByName(c.partitioner); err != nil {
		return c, err
	}
	return c, nil
}

// islandGraph declares one mesh island onto g: the mesh (routers + NIs)
// as a structural module plus per-stream producer/consumer threads, all
// in one colocation group. Stream s injects at router (s, 0) and drains
// at (width-1-s, height-1), so streams share links and exercise
// arbitration. Island 0 keeps the historical unprefixed names. The
// consumers log dated deliveries into rec; checksums land in
// sums[island*streams+s]; the mesh pointer lands in meshes[island].
func islandGraph(g *netlist.Graph, island int, c streamParams, rec *trace.Recorder, sums []uint64, meshes []*Mesh) {
	prefix := ""
	if island > 0 {
		prefix = fmt.Sprintf("m%d.", island)
	}
	group := fmt.Sprintf("island%d", island)
	rateSeed, paySeed := c.seeds[2*island], c.seeds[2*island+1]

	meshMod := g.Structural(prefix+"mesh", nil).InGroup(group)
	type stream struct {
		src, dst *netlist.Chan[uint32]
		srcIn    netlist.InPort[uint32]  // the mesh (NI) reads the producer stream
		dstOut   netlist.OutPort[uint32] // the mesh (NI) writes the consumer stream
	}
	streams := make([]stream, c.streams)
	for s := 0; s < c.streams; s++ {
		streams[s].src = netlist.AddChan[uint32](g, fmt.Sprintf("%ss%d.src", prefix, s), c.fifoDepth).WithBurst(c.packetLen)
		streams[s].dst = netlist.AddChan[uint32](g, fmt.Sprintf("%ss%d.dst", prefix, s), c.fifoDepth)
		streams[s].srcIn = streams[s].src.Input(meshMod)
		streams[s].dstOut = streams[s].dst.Output(meshMod)
	}
	meshMod.Elab(func(k *sim.Kernel) {
		m := NewMesh(k, prefix+"noc", Config{Width: c.width, Height: c.height, Cycle: c.cycle, FIFODepth: c.fifoDepth})
		for s := 0; s < c.streams; s++ {
			m.AttachNI(fmt.Sprintf("%ss%d.ni.in", prefix, s), s, 0, streams[s].srcIn.End(), nil, NIConfig{
				PacketLen: c.packetLen, Cycle: c.cycle,
				Dst: m.RouterIndex(c.width-1-s, c.height-1),
			})
			m.AttachNI(fmt.Sprintf("%ss%d.ni.out", prefix, s), c.width-1-s, c.height-1, nil, streams[s].dstOut.End(), NIConfig{
				PacketLen: c.packetLen, Cycle: c.cycle,
			})
		}
		meshes[island] = m
	})

	delay := func(p *sim.Process, d sim.Time) {
		if c.decoupled {
			p.Inc(d)
		} else {
			p.Wait(d)
		}
	}
	for s := 0; s < c.streams; s++ {
		s := s
		prodRate := workload.Random(rateSeed+2*int64(s), 5, sim.NS)
		consRate := workload.Random(rateSeed+2*int64(s)+1, 3, sim.NS)
		prod := g.Thread(fmt.Sprintf("%ss%d.prod", prefix, s), nil).InGroup(group)
		srcOut := streams[s].src.Output(prod)
		prod.Body(func(p *sim.Process) {
			w := srcOut.End()
			for i := 0; i < c.words; i++ {
				w.Write(workload.WordAt(paySeed+int64(s), i))
				delay(p, prodRate(i)+sim.NS)
			}
		})
		cons := g.Thread(fmt.Sprintf("%ss%d.cons", prefix, s), nil).InGroup(group)
		dstIn := streams[s].dst.Input(cons)
		cons.Body(func(p *sim.Process) {
			r := dstIn.End()
			sum := uint64(0)
			for i := 0; i < c.words; i++ {
				v := r.Read()
				sum = workload.Checksum(sum, v)
				delay(p, consRate(i))
				rec.Logf(p, "got %08x", v)
			}
			sums[island*c.streams+s] = sum
		})
	}
}

// streams is what one elaboration of the island graph writes into: the
// consumers' dated delivery trace, their checksums (island*streams+s)
// and the meshes.
type streams struct {
	rec    *trace.Recorder
	sums   []uint64
	meshes []*Mesh
}

// runStreams elaborates the island graph through netlist.Elaborate (one
// kernel for the classic single-island build, up to `meshes` kernels
// otherwise), runs it to quiescence and shuts it down.
func runStreams(ctx context.Context, c streamParams) (*streams, *netlist.Build, error) {
	impl := netlist.Plain
	if c.decoupled {
		impl = netlist.Smart
	}
	part, _ := netlist.PartitionerByName(c.partitioner) // validated by streamConfig
	// The profile-cache key: the normalised config without its
	// placement, rendered (the seeds slice is not comparable).
	dated := c
	dated.shards, dated.partitioner = 0, ""
	key := fmt.Sprintf("noc %+v", dated)
	b, st, err := netlist.Elaborate(ctx, key, netlist.Options{Shards: c.shards, Partitioner: part, Impl: impl},
		func() (*netlist.Graph, *streams) {
			st := &streams{rec: trace.NewRecorder(), sums: make([]uint64, c.meshes*c.streams), meshes: make([]*Mesh, c.meshes)}
			g := netlist.New("noc")
			for i := 0; i < c.meshes; i++ {
				islandGraph(g, i, c, st.rec, st.sums, st.meshes)
			}
			return g, st
		})
	if err != nil {
		return nil, nil, err
	}
	runErr := b.RunGuarded(ctx, sim.RunForever)
	blocked := b.Blocked()
	b.Shutdown()
	if runErr != nil {
		return nil, nil, runErr
	}
	if len(blocked) != 0 {
		return nil, nil, fmt.Errorf("noc: deadlock (decoupled=%v), blocked processes: %v", c.decoupled, blocked)
	}
	return st, b, nil
}

func runScenario(ctx context.Context, p scenario.Params) (scenario.Outcome, error) {
	c, err := streamConfig(p)
	if err != nil {
		return scenario.Outcome{}, err
	}
	st, b, err := runStreams(ctx, c)
	if err != nil {
		return scenario.Outcome{}, err
	}
	entries := st.rec.Sorted()
	if len(entries) != c.meshes*c.streams*c.words {
		return scenario.Outcome{}, fmt.Errorf("noc: delivered %d words, want %d", len(entries), c.meshes*c.streams*c.words)
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
	var flits, packets uint64
	for _, m := range st.meshes {
		ms := m.Stats()
		flits += ms.FlitsForwarded
		packets += ms.PacketsDelivered
	}
	// Kernel-stat counters (context switches, method activations) are
	// schedule-dependent for sharded runs (see
	// scenario.Outcome.CtxSwitches); report them single-kernel only.
	// Flit and packet counts are model behaviour — date-deterministic
	// at any shard count.
	counters := map[string]uint64{
		"flits":     flits,
		"packets":   packets,
		"shards":    uint64(b.Shards()),
		"crossings": uint64(b.Crossings),
	}
	b.Placement.AddCounters(counters)
	stats := b.Stats()
	ctxSw := stats.ContextSwitches
	if b.Shards() > 1 {
		ctxSw = 0
	} else {
		counters["method_activations"] = stats.MethodActivations
	}
	return scenario.Outcome{
		SimEndNS:    int64(simEnd / sim.NS),
		CtxSwitches: ctxSw,
		Checksums:   st.sums,
		DatesHash:   d.Sum(),
		Counters:    counters,
	}, nil
}

// checkScenario runs the point's stream shape in the decoupled build at
// the point's shard count (Smart FIFO endpoints + Inc) and the
// single-kernel reference build (regular FIFOs + Wait) and diffs the
// consumers' dated delivery traces — the §IV-A oracle applied to the
// NI/mesh boundary, composed with the island-partitioning claim.
//
// A non-empty diff on a MULTI-stream shape is a real property of the
// shape, not necessarily a Smart-FIFO bug: router arbitration between
// streams contending for a link depends on same-date delta ordering,
// which the decoupled and reference schedules may resolve differently.
// Single-stream shapes (the default) have no contention and must always
// diff empty; the sharded island partitioning never changes the diff
// either way (islands are whole units).
func checkScenario(ctx context.Context, p scenario.Params) (string, error) {
	c, err := streamConfig(p)
	if err != nil {
		return "", err
	}
	ref, dec := c, c
	ref.decoupled, ref.shards = false, 1
	dec.decoupled = true
	refSt, _, err := runStreams(ctx, ref)
	if err != nil {
		return "", err
	}
	decSt, _, err := runStreams(ctx, dec)
	if err != nil {
		return "", err
	}
	return trace.Diff(refSt.rec, decSt.rec), nil
}
