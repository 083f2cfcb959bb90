package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/scenario"
)

var update = flag.Bool("update", false, "regenerate goldens.json from the current tree (TestGoldens only)")

func TestMedianAndPercentile(t *testing.T) {
	for _, c := range []struct {
		name    string
		in      []float64
		median  float64
		q       float64
		quoteAt float64
	}{
		{"empty", nil, 0, 0.9, 0},
		{"one", []float64{7}, 7, 0.99, 7},
		{"odd", []float64{5, 1, 3}, 3, 0.5, 3},
		{"even takes the mean of the middles", []float64{4, 1, 3, 2}, 2.5, 0.5, 3},
		{"nearest rank p90 of 10", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 0.9, 10},
		{"unsorted input is not modified", []float64{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, 4.5, 0.1, 1},
	} {
		in := append([]float64(nil), c.in...)
		if got := median(c.in); got != c.median {
			t.Errorf("%s: median = %v, want %v", c.name, got, c.median)
		}
		if got := percentile(c.in, c.q); got != c.quoteAt {
			t.Errorf("%s: percentile(%v) = %v, want %v", c.name, c.q, got, c.quoteAt)
		}
		for i := range in {
			if in[i] != c.in[i] {
				t.Errorf("%s: input reordered", c.name)
				break
			}
		}
	}
}

// The highest quotable percentile is the one with at least ten samples
// beyond it.
func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		q    float64
	}{
		{0, 0.99, 0.50}, // nothing qualifies: the median is all there is
		{5, 0.99, 0.50},
		{19, 0.99, 0.50},  // p50 of 19 leaves 9 beyond
		{21, 0.99, 0.50},  // p50 leaves 10 beyond, p75 leaves 5
		{40, 0.90, 0.50},  // p75 of 40 (rank 30) leaves 9 beyond
		{44, 0.90, 0.75},  // rank 33 leaves 10 beyond
		{100, 0.90, 0.75}, // p90 of 100 (rank 90) leaves 9 beyond
		{110, 0.90, 0.90}, // rank 99 leaves 10 beyond
		{200, 0.90, 0.90}, // capped by want
		{200, 0.99, 0.90}, // p95 of 200 (rank 190) leaves 9 beyond
		{220, 0.99, 0.95},
		{1100, 0.99, 0.99},
		{20000, 0.999, 0.999},
	} {
		if got := tailQuantile(c.n, c.want); got != c.q {
			t.Errorf("tailQuantile(%d, %v) = %v, want %v", c.n, c.want, got, c.q)
		}
	}
}

// quartileSpread must agree with Python's statistics.quantiles(n=4),
// the rule the acceptance check applies.
func TestQuartileSpread(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, (8.25 - 2.75) / 5.5},
		// quantiles([1, 2, 4], n=4) = [1.0, 2.0, 4.0]
		{[]float64{1, 2, 4}, (4.0 - 1.0) / 2.0},
		// quantiles([3, 5], n=4) = [2.5, 4.0, 5.5]: extrapolates, as Python does
		{[]float64{3, 5}, (5.5 - 2.5) / 4.0},
		{[]float64{7}, 0},
		{[]float64{2, 2, 2, 2}, 0},
	} {
		if got := quartileSpread(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	spans := []span{
		{id: 1, name: "op", start: us(0), end: us(100)},
		{id: 2, parent: 1, name: "post", start: us(10), end: us(40)},
		{id: 3, parent: 1, name: "fetch", start: us(30), end: us(60)},    // overlaps post by 10
		{id: 4, parent: 2, name: "kernel", start: us(15), end: us(35)},   // grandchild: charged to post only
		{id: 5, parent: 1, name: "late", start: us(90), end: us(120)},    // sticks out of the parent
		{id: 6, name: "other root", start: us(200), end: us(250)},        // no children
		{id: 7, parent: 6, name: "covers", start: us(190), end: us(260)}, // covers its parent whole
	}
	want := map[int]time.Duration{
		1: us(100 - 50 - 10), // children cover [10,60) and [90,100)
		2: us(30 - 20),
		3: us(30),
		4: us(20),
		5: us(30),
		6: 0,
		7: us(70),
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, got[id], w)
		}
	}
	by := selfByName(spans)
	if by["op"] != us(40) || by["post"] != us(10) {
		t.Errorf("selfByName = %v", by)
	}
}

func TestTracerSpansAndChromeTrace(t *testing.T) {
	var off *tracer
	off.begin("nothing", nil, 0).done() // a disabled tracer no-ops
	off.begin("nothing", nil, 0).child("x", time.Second)

	tr := newTracer()
	root := tr.begin("pipeline.Run", nil, 3)
	inner := tr.begin("inner", root, 3)
	inner.done()
	root.done()
	root.child("kernel_run", tr.spans[0].end-tr.spans[0].start+time.Hour) // longer than the parent: clamped
	if len(tr.spans) != 3 {
		t.Fatalf("%d spans, want 3", len(tr.spans))
	}
	k := tr.spans[2]
	if k.parent != tr.spans[0].id || k.op != 3 || k.start != tr.spans[0].start || k.end != tr.spans[0].end {
		t.Errorf("synthesized child = %+v, parent %+v", k, tr.spans[0])
	}
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, "bench test", tr.spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace does not load: %v\n%s", err, buf.Bytes())
	}
	if len(doc.TraceEvents) != 4 { // process_name + 3 spans
		t.Errorf("%d trace events, want 4", len(doc.TraceEvents))
	}
}

func TestScrapeDelta(t *testing.T) {
	reg := metrics.NewRegistry()
	plain := reg.Counter("campaign_points_started_total", "started")
	subm := reg.Counter("store_records_total", "records", metrics.Label{Name: "type", Value: "job_submitted"})
	pts := reg.Counter("store_records_total", "records", metrics.Label{Name: "type", Value: "point completed"}) // a space in a label value
	other := reg.Counter("store_records_total_extra", "must not be summed into store_records_total")
	h := reg.Histogram("core_bridge_flush_batch_words", "batch", []float64{1, 2, 4, 8})

	plain.Add(5)
	subm.Add(1)
	other.Add(100)
	h.Observe(1)
	before, err := registryScrape(reg)
	if err != nil {
		t.Fatal(err)
	}
	plain.Add(168)
	subm.Add(1)
	pts.Add(168)
	other.Add(1000)
	for i := 0; i < 6; i++ {
		h.Observe(4)
	}
	h.Observe(100)
	after, err := registryScrape(reg)
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		family string
		want   float64
	}{
		{"campaign_points_started_total", 168},
		{"store_records_total", 169},
		{"no_such_family", 0},
	} {
		if got := delta(before, after, c.family); got != c.want {
			t.Errorf("delta(%s) = %v, want %v", c.family, got, c.want)
		}
	}
	if got := after[`store_records_total{type="point completed"}`]; got != 168 {
		t.Errorf("labelled series with a space = %v, want 168", got)
	}
	if got := histogramMedian(before, after, "core_bridge_flush_batch_words"); got != 4 {
		t.Errorf("histogram median of the delta = %v, want 4", got)
	}
	if got := histogramMedian(nil, before, "core_bridge_flush_batch_words"); got != 1 {
		t.Errorf("histogram median of the first scrape = %v, want 1", got)
	}
	if got := histogramMedian(nil, before, "absent"); got != 0 {
		t.Errorf("histogram median of an absent family = %v, want 0", got)
	}

	for _, bad := range []string{
		"no_type_line 1\n",
		"# TYPE x counter\nx notanumber\n",
		"# TYPE x counter\nx{a=\"unterminated 1\n",
	} {
		if _, err := parseScrape([]byte(bad)); err == nil {
			t.Errorf("parseScrape(%q) accepted a malformed exposition", bad)
		}
	}
}

func TestProcParsers(t *testing.T) {
	// comm may hold spaces and parentheses; fields count from the last ')'.
	stat := "4242 (simd (v2) x) S 1 4242 4242 0 -1 4194304 109 0 0 0 37 5 0 0 20 0 9 0 134442 2703360 335"
	if got, err := parseStatCPU(stat); err != nil || got != 420*time.Millisecond {
		t.Errorf("parseStatCPU = %v, %v; want 420ms", got, err)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 a b c"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) accepted a malformed line", bad)
		}
	}
	status := "Name:\tsimd\nVmPeak:\t  999999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   100 kB\n"
	if got, err := parseVmHWM([]byte(status)); err != nil || got != 20 {
		t.Errorf("parseVmHWM = %v, %v; want 20", got, err)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\tmany kB\n"} {
		if _, err := parseVmHWM([]byte(bad)); err == nil {
			t.Errorf("parseVmHWM(%q) accepted a malformed status", bad)
		}
	}
	if got := parseLoadAvg("1.62 0.45 0.39 2/84 10339\n"); got != 1.62 {
		t.Errorf("parseLoadAvg = %v", got)
	}
	if rss, err := peakRSSMB(0); err != nil || rss <= 0 {
		t.Errorf("own peak RSS = %v, %v", rss, err)
	}
	if selfCPU() <= 0 {
		t.Error("own CPU time reads as zero")
	}
}

func TestSweepSeedsAndDoc(t *testing.T) {
	seen := map[int64]bool{}
	for _, bench := range []int64{0, 1, 2, 1 << 40, -5} {
		for k := 0; k < 3; k++ {
			for _, s := range sweepSeeds(bench, k) {
				if s <= 0 || s >= 1<<53 {
					t.Fatalf("seed %d (bench %d, set %d) does not survive JSON", s, bench, k)
				}
				if bench >= 0 && bench < 1<<30 && seen[s] {
					t.Fatalf("seed %d repeats", s)
				}
				seen[s] = true
			}
		}
	}
	set, err := scenario.ParseSet(sweepDoc(sweepSeeds(1, 0)))
	if err != nil {
		t.Fatal(err)
	}
	pts, err := set.Expand()
	if err != nil {
		t.Fatal(err)
	}
	hashes := map[string]bool{}
	for _, p := range pts {
		hashes[p.Hash] = true
	}
	if len(pts) != sweepPoints || len(hashes) != sweepPoints {
		t.Errorf("sweep expands to %d points, %d unique; want %d", len(pts), len(hashes), sweepPoints)
	}
}

func TestCheckSweep(t *testing.T) {
	line := func(idx int, mode string, depth, seed int, hash string, end int, extra string) []byte {
		return []byte(`{"index":` + itoa(idx) + `,"model":"pipeline","hash":"h","params":{"depth":` + itoa(depth) +
			`,"mode":"` + mode + `","seed":` + itoa(seed) + `},"outcome":{"sim_end_ns":` + itoa(end) +
			`,"dates_hash":"` + hash + `","counters":{"words":400}}` + extra + "}\n")
	}
	agg := func(points int) []byte {
		return []byte(`{"aggregate":{"points":` + itoa(points) + `,"errors":0,"check_failures":0,"total_ctx_switches":77}}` + "\n")
	}
	good := [][]byte{line(0, "TDless", 1, 9, "4:aa", 500, ""), line(1, "TDfull", 1, 9, "4:aa", 500, `,"checked":true`), agg(2)}
	if c := checkSweep(good); c.failed != 0 || c.points != 2 || c.words != 800 || c.ctxSwitches != 77 || c.dateErrNS != 0 || c.unsettled {
		t.Errorf("good stream: %+v", c)
	}
	// simd can close the stream with the indented status of a job that
	// has not stored its results yet: complete points, no aggregate.
	status := [][]byte{good[0], good[1], []byte("{\n"), []byte("  \"status\": {\n"), []byte("    \"state\": \"running\"\n"), []byte("  }\n"), []byte("}\n")}
	if c := checkSweep(status); c.failed != 0 || c.points != 2 || !c.unsettled {
		t.Errorf("unsettled stream: %+v", c)
	}
	if got := pointBytes(status); !bytes.Equal(got, pointBytes(good)) {
		t.Errorf("point bytes depend on the closing document")
	}
	for name, lines := range map[string][][]byte{
		"date mismatch":   {line(0, "TDless", 1, 9, "4:aa", 500, ""), line(1, "TDfull", 1, 9, "4:bb", 530, ""), agg(2)},
		"point error":     {[]byte(`{"index":0,"model":"kpn","params":{},"error":"boom"}` + "\n"), agg(1)},
		"spot-check diff": {line(0, "TDfull", 1, 9, "4:aa", 500, `,"checked":true,"check_diff":"line 3"`), agg(1)},
		"no aggregate":    {line(0, "TDfull", 1, 9, "4:aa", 500, "")},
		"cancelled job":   {line(0, "TDfull", 1, 9, "4:aa", 500, ""), []byte(`{"status":{"state":"cancelled"}}` + "\n")},
		"short aggregate": {line(0, "TDfull", 1, 9, "4:aa", 500, ""), agg(5)},
		"empty":           {},
	} {
		c := checkSweep(lines)
		if c.failed == 0 && c.firstErr == "" {
			t.Errorf("%s: accepted: %+v", name, c)
		}
		if name == "date mismatch" && c.dateErrNS != 30 {
			t.Errorf("date mismatch: error %v ns, want 30", c.dateErrNS)
		}
	}
	// Differing logs with equal end dates must not read as exact.
	same := [][]byte{line(0, "TDless", 1, 9, "4:aa", 500, ""), line(1, "TDfull", 1, 9, "4:bb", 500, ""), agg(2)}
	if c := checkSweep(same); c.dateErrNS < 1 {
		t.Errorf("equal end dates, different logs: error %v ns", c.dateErrNS)
	}
}

func itoa(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}

func TestVerdictAndCompare(t *testing.T) {
	for _, c := range []struct {
		by, spread, bound float64
		want              string
	}{
		{0.02, 0.01, 0.10, "agree"},
		{-0.50, 0.01, 0.10, "agree"}, // better is never a finding
		{0.11, 0.01, 0.10, "worse"},
		{0.11, 0.12, 0.10, "unresolved"}, // the spread is wider than the bound
		{0.00, 0.30, 0.25, "unresolved"},
	} {
		if got := verdict(c.by, c.spread, c.bound); got != c.want {
			t.Errorf("verdict(%v, %v, %v) = %s, want %s", c.by, c.spread, c.bound, got, c.want)
		}
	}
	if worseBy(100, 110, "lower") <= 0 || worseBy(100, 110, "higher") >= 0 {
		t.Error("worseBy ignores the metric's direction")
	}

	mk := func(workload string, traced bool, seed int64, failed int, vals map[string]float64) document {
		d := document{Workload: workload, Trace: traced, Attempted: 20, Failed: failed, Metrics: map[string]metric{}}
		d.Stamp.Seed = seed
		for k, v := range vals {
			d.Metrics[k] = metric{Value: v, Unit: "x"}
		}
		return d
	}
	a := []document{
		mk("fig5_d1", false, 1, 0, map[string]float64{"op_ms_min": 300, "peak_rss_mb": 10}),
		mk("fig5_d1", false, 2, 0, map[string]float64{"op_ms_min": 302, "peak_rss_mb": 10}),
		mk("fig5_d1", true, 1, 0, map[string]float64{"sim.ctx_switches": 466653, "max_date_err_ns": 0}),
		mk("soc_shard2", true, 1, 0, map[string]float64{"sim.ctx_switches": 1000, "soc.sim_end_ns": 5}),
		mk("sweep_cold", true, 1, 0, map[string]float64{"sim.ctx_switches": 138926, "campaign.points_started": 168}),
	}
	var out bytes.Buffer
	if bad := compareSets(a, a, &out); bad != 0 {
		t.Errorf("a set disagrees with itself: %d findings\n%s", bad, out.String())
	}
	for name, c := range map[string]struct {
		b    []document
		want int
	}{
		"slower beyond the bound": {[]document{
			mk("fig5_d1", false, 1, 0, map[string]float64{"op_ms_min": 400, "peak_rss_mb": 10}),
			mk("fig5_d1", false, 2, 0, map[string]float64{"op_ms_min": 401, "peak_rss_mb": 10})}, 1},
		"faster is fine": {[]document{
			mk("fig5_d1", false, 1, 0, map[string]float64{"op_ms_min": 100, "peak_rss_mb": 10})}, 0},
		"exact metric changed": {[]document{
			mk("fig5_d1", true, 1, 0, map[string]float64{"sim.ctx_switches": 466654, "max_date_err_ns": 0})}, 1},
		"sharded kernel counters may move, dates may not": {[]document{
			mk("soc_shard2", true, 1, 0, map[string]float64{"sim.ctx_switches": 1234, "soc.sim_end_ns": 6})}, 1},
		"so may a cold sweep's: a median over ops with fresh seeds": {[]document{
			mk("sweep_cold", true, 1, 0, map[string]float64{"sim.ctx_switches": 138923, "campaign.points_started": 168})}, 0},
		"but not its campaign counts": {[]document{
			mk("sweep_cold", true, 1, 0, map[string]float64{"sim.ctx_switches": 138923, "campaign.points_started": 167})}, 1},
		"failed share rose": {[]document{
			mk("fig5_d1", false, 1, 1, map[string]float64{"op_ms_min": 300, "peak_rss_mb": 10})}, 1},
	} {
		out.Reset()
		if bad := compareSets(a, c.b, &out); bad != c.want {
			t.Errorf("%s: %d findings, want %d\n%s", name, bad, c.want, out.String())
		}
	}
}

// BENCHMARK.json is the driver's copy of the catalogue and the workload
// table; the two must not drift.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
		Why    string   `json:"why"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(doc.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(doc.Workloads), len(ws))
	}
	for i, w := range ws {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why == "" || len(doc.Workloads[i].Why) > 200 || strings.Contains(doc.Workloads[i].Why, "\n") {
			t.Errorf("workload %d: BENCHMARK.json has %q (why: %d chars), harness %q", i, doc.Workloads[i].Name, len(doc.Workloads[i].Why), w.name)
		}
	}
	check := func(k kind, got []entry) {
		var want []metricDef
		for _, m := range catalogue {
			if m.kind == k {
				want = append(want, m)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("kind %d: BENCHMARK.json lists %d metrics, the catalogue %d", k, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("metric %d: BENCHMARK.json %+v, catalogue %+v", i, g, m)
			}
			if k == endToEnd && (g.Bound == nil || *g.Bound != m.bound || m.bound <= 0 || m.bound > 0.25) {
				t.Errorf("%s: bound in BENCHMARK.json %v, catalogue %v", m.name, g.Bound, m.bound)
			}
			if k == perLayer && g.Bound != nil {
				t.Errorf("%s: a per-layer metric carries no bound", m.name)
			}
		}
	}
	check(endToEnd, doc.EndToEnd)
	check(perLayer, doc.PerLayer)
	if len(doc.PerLayer) > 128 || doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("BENCHMARK.json limits: %d per-layer metrics, run_seconds %d, paths %v", len(doc.PerLayer), doc.RunSeconds, doc.Paths)
	}
}

// TestGoldens pins every in-process workload's simulated outputs at full
// scale. `go test -run TestGoldens -update` is the only way goldens.json
// is regenerated.
func TestGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale model runs")
	}
	payload := scenario.Rand(goldenSeed).Int63()
	got := map[string]golden{}
	for i := range modelDefs {
		def := &modelDefs[i]
		out, _, err := runModel(context.Background(), def, underTest, false, payload)
		if err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		got[def.name] = goldenOf(def, &out)
	}
	if *update {
		js, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("goldens.json", append(js, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("goldens.json regenerated")
		return
	}
	want, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("goldens.json pins %d workloads, the harness has %d", len(want), len(got))
	}
	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no golden", name)
			continue
		}
		gj, _ := json.Marshal(g)
		wj, _ := json.Marshal(w)
		if !bytes.Equal(gj, wj) {
			t.Errorf("%s:\n got %s\nwant %s", name, gj, wj)
		}
	}
}

// TestWorkloadsSmoke runs every workload once in each mode at tiny size
// and asserts that every catalogued metric of that mode comes out, with
// its unit, and that no op failed.
func TestWorkloadsSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads() {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{workload: w.name, seed: 3, seconds: 0.01, traced: traced, buildDir: dir, tiny: true}
			doc, err := execute(context.Background(), cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !doc.Correct || doc.Failed != 0 || doc.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, doc.Correct, doc.Attempted, doc.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			n := 0
			for _, m := range catalogue {
				if m.kind != want {
					continue
				}
				n++
				got, ok := doc.Metrics[m.name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s not emitted", w.name, traced, m.name)
				case got.Unit != m.unit:
					t.Errorf("%s traced=%v: %s has unit %q, want %q", w.name, traced, m.name, got.Unit, m.unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s traced=%v: %s = %v", w.name, traced, m.name, got.Value)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, m.name, got.Value)
				}
			}
			if len(doc.Metrics) != n {
				t.Errorf("%s traced=%v: %d metrics emitted, the catalogue has %d for this mode", w.name, traced, len(doc.Metrics), n)
			}
			if traced {
				if doc.Metrics["max_date_err_ns"].Value != 0 {
					t.Errorf("%s: max_date_err_ns = %v", w.name, doc.Metrics["max_date_err_ns"].Value)
				}
				for _, name := range []string{"sim.switch_ns", "core.smart_op_ns", "store.append_us", "core.words", "sim.ctx_switches", "op_ms_p50"} {
					if name == "sim.ctx_switches" && w.name == "sweep_warm" {
						continue // the row's point: no kernel runs at all
					}
					if doc.Metrics[name].Value <= 0 {
						t.Errorf("%s: %s = %v, want a measurement", w.name, name, doc.Metrics[name].Value)
					}
				}
				raw, err := os.ReadFile(dir + "/trace-" + w.name + ".json")
				if err != nil {
					t.Fatal(err)
				}
				var tr struct {
					TraceEvents []json.RawMessage `json:"traceEvents"`
				}
				if err := json.Unmarshal(raw, &tr); err != nil || len(tr.TraceEvents) < 10 {
					t.Errorf("%s: trace does not load or is empty (%d events): %v", w.name, len(tr.TraceEvents), err)
				}
			}
		}
	}
}
