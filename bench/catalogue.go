package main

// The metric catalogue: every name the benchmark may emit, with its
// unit, direction and (end-to-end only) regression bound. BENCHMARK.json
// repeats this table for the driver; TestCatalogueMatchesBenchmarkJSON
// keeps the two from drifting. Names are cited verbatim by later issues
// — do not rename.

// kind says which run reports a metric.
type kind int

const (
	endToEnd kind = iota // untraced run; carries a bound
	perLayer             // traced run; no bound
)

type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	kind   kind
	// bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression. One
	// bound serves all seven workloads, so each is set by the noisiest row
	// (README, "Measured spread"); on this box that is the contract's
	// maximum for every metric.
	bound float64
	// exact metrics are simulated-side counts or dates that repeat
	// exactly on deterministic rows: -compare demands identity, not
	// agreement within noise, wherever the row is deterministic.
	exact bool
}

var catalogue = []metricDef{
	// End to end (host time unless the unit says otherwise).
	{name: "setup_s", unit: "s", better: "lower", kind: endToEnd, bound: 0.25},
	{name: "op_ms_min", unit: "ms", better: "lower", kind: endToEnd, bound: 0.25},
	{name: "first_ms_min", unit: "ms", better: "lower", kind: endToEnd, bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", kind: endToEnd, bound: 0.25},

	// Accuracy (simulated time; must be 0).
	{name: "max_date_err_ns", unit: "ns", better: "lower", kind: perLayer, exact: true},

	// The typical op (ISSUE 11's end-to-end definitions), demoted: on
	// this box their run-to-run spread exceeds any admissible bound.
	{name: "op_ms_p50", unit: "ms", better: "lower", kind: perLayer},
	{name: "first_ms_p50", unit: "ms", better: "lower", kind: perLayer},
	{name: "cpu_ms_per_op", unit: "ms", better: "lower", kind: perLayer},

	// sim: the kernel.
	{name: "sim.switch_ns", unit: "ns", better: "lower", kind: perLayer},
	{name: "sim.inc_ns", unit: "ns", better: "lower", kind: perLayer},
	{name: "sim.method_ns", unit: "ns", better: "lower", kind: perLayer},
	{name: "sim.ctx_switches", unit: "count", better: "lower", kind: perLayer, exact: true},
	{name: "sim.method_activations", unit: "count", better: "lower", kind: perLayer, exact: true},
	{name: "sim.delta_cycles", unit: "count", better: "lower", kind: perLayer, exact: true},
	{name: "sim.timed_steps", unit: "count", better: "lower", kind: perLayer, exact: true},
	{name: "sim.notifications", unit: "count", better: "lower", kind: perLayer, exact: true},
	{name: "sim.switch_share_pct", unit: "%", better: "lower", kind: perLayer},

	// core: Smart FIFO and bridges.
	{name: "core.smart_op_ns", unit: "ns", better: "lower", kind: perLayer},
	{name: "core.smart_block_ns", unit: "ns", better: "lower", kind: perLayer},
	{name: "core.burst_word_ns", unit: "ns", better: "lower", kind: perLayer},
	{name: "core.bridge_word_ns", unit: "ns", better: "lower", kind: perLayer},
	{name: "core.words", unit: "count", better: "higher", kind: perLayer, exact: true},
	{name: "core.op_share_pct", unit: "%", better: "lower", kind: perLayer},
	{name: "core.bridge_words", unit: "count", better: "lower", kind: perLayer},
	{name: "core.bridge_credits", unit: "count", better: "lower", kind: perLayer},
	{name: "core.bridge_flush_batch_p50", unit: "count", better: "higher", kind: perLayer},

	// fifo: the reference channels.
	{name: "fifo.ref_op_ns", unit: "ns", better: "lower", kind: perLayer},
	{name: "fifo.sync_op_ns", unit: "ns", better: "lower", kind: perLayer},

	// par: the shard coordinator.
	{name: "par.roundtrip_us_p50", unit: "us", better: "lower", kind: perLayer},
	{name: "par.roundtrip_us_p99", unit: "us", better: "lower", kind: perLayer},
	{name: "par.advances", unit: "count", better: "lower", kind: perLayer},
	{name: "par.crossings", unit: "count", better: "lower", kind: perLayer, exact: true},
	{name: "par.flushes", unit: "count", better: "lower", kind: perLayer},
	{name: "par.fallbacks", unit: "count", better: "lower", kind: perLayer},
	{name: "par.parks", unit: "count", better: "lower", kind: perLayer},
	{name: "par.wakes_hard", unit: "count", better: "lower", kind: perLayer},
	{name: "par.wakes_soft", unit: "count", better: "lower", kind: perLayer},
	{name: "par.rendezvous", unit: "count", better: "lower", kind: perLayer},
	{name: "par.step_ms", unit: "ms", better: "lower", kind: perLayer},
	{name: "par.exchange_ms", unit: "ms", better: "lower", kind: perLayer},
	{name: "par.parked_ms", unit: "ms", better: "lower", kind: perLayer},
	{name: "par.speedup_x", unit: "x", better: "higher", kind: perLayer},

	// netlist: elaboration and teardown.
	{name: "netlist.build_us", unit: "us", better: "lower", kind: perLayer},
	{name: "netlist.build_teardown_ms", unit: "ms", better: "lower", kind: perLayer},

	// pipeline, soc: the models.
	{name: "pipeline.host_ns_per_word", unit: "ns", better: "lower", kind: perLayer},
	{name: "soc.host_ns_per_word", unit: "ns", better: "lower", kind: perLayer},
	{name: "pipeline.sim_end_ns", unit: "ns", better: "lower", kind: perLayer, exact: true},
	{name: "soc.sim_end_ns", unit: "ns", better: "lower", kind: perLayer, exact: true},
	{name: "soc.bus_accesses", unit: "count", better: "lower", kind: perLayer, exact: true},
	{name: "soc.noc_flits", unit: "count", better: "lower", kind: perLayer, exact: true},
	{name: "soc.gain_vs_sync_pct", unit: "%", better: "higher", kind: perLayer},

	// scenario, campaign: spec handling and the campaign engine.
	{name: "scenario.expand_us_per_point", unit: "us", better: "lower", kind: perLayer},
	{name: "campaign.warm_us_per_point", unit: "us", better: "lower", kind: perLayer},
	{name: "campaign.emit_us_per_point", unit: "us", better: "lower", kind: perLayer},
	{name: "campaign.points_started", unit: "count", better: "lower", kind: perLayer, exact: true},
	{name: "campaign.points_completed", unit: "count", better: "higher", kind: perLayer, exact: true},
	{name: "campaign.cache_hits", unit: "count", better: "higher", kind: perLayer, exact: true},
	{name: "campaign.points_failed", unit: "count", better: "lower", kind: perLayer, exact: true},
	{name: "campaign.retries", unit: "count", better: "lower", kind: perLayer, exact: true},
	{name: "campaign.cache_hit_ratio", unit: "ratio", better: "higher", kind: perLayer, exact: true},
	{name: "campaign.points_per_s", unit: "1/s", better: "higher", kind: perLayer},

	// store: the durable journal.
	{name: "store.append_us", unit: "us", better: "lower", kind: perLayer},
	{name: "store.append_batched_us", unit: "us", better: "lower", kind: perLayer},
	{name: "store.recover_ms", unit: "ms", better: "lower", kind: perLayer},
	{name: "store.records", unit: "count", better: "lower", kind: perLayer, exact: true},
	{name: "store.fsyncs", unit: "count", better: "lower", kind: perLayer},
	{name: "store.records_per_fsync", unit: "ratio", better: "higher", kind: perLayer},
	{name: "store.overhead_ms_per_point", unit: "ms", better: "lower", kind: perLayer},

	// simd: the HTTP service.
	{name: "simd.build_s", unit: "s", better: "lower", kind: perLayer},
	{name: "simd.boot_ms", unit: "ms", better: "lower", kind: perLayer},
	{name: "simd.submit_ack_ms_p50", unit: "ms", better: "lower", kind: perLayer},
	{name: "simd.done_ms_p90", unit: "ms", better: "lower", kind: perLayer},
	{name: "simd.results_fetch_ms_p50", unit: "ms", better: "lower", kind: perLayer},
	{name: "simd.metrics_scrape_ms_p50", unit: "ms", better: "lower", kind: perLayer},

	// host: the Go runtime under the model, and what tracing costs.
	{name: "host.alloc_kb_per_op", unit: "kB", better: "lower", kind: perLayer},
	{name: "host.gc_cycles_per_op", unit: "count", better: "lower", kind: perLayer},
	{name: "host.multi_p_slowdown_x", unit: "x", better: "lower", kind: perLayer},
	{name: "host.calib_walk_ms", unit: "ms", better: "lower", kind: perLayer},
	{name: "trace.overhead_pct", unit: "%", better: "lower", kind: perLayer},
}

// lookupMetric returns the catalogue entry for name.
func lookupMetric(name string) (metricDef, bool) {
	for _, m := range catalogue {
		if m.name == name {
			return m, true
		}
	}
	return metricDef{}, false
}
