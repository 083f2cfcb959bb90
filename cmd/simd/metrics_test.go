package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/metrics"
)

// newMetricsServer builds a server whose engine publishes into a fresh
// registry, so tests can scrape /metrics against live campaigns.
func newMetricsServer(t *testing.T, workers int) (*httptest.Server, *campaign.Engine, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	eng := campaign.NewEngine(campaign.Options{Workers: workers, Metrics: campaign.NewMetrics(reg)})
	ts := httptest.NewServer(newServer(eng, reg))
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})
	return ts, eng, reg
}

// scrape fetches /metrics, checks the content type and that the body is
// a well-formed exposition, and returns the family names and raw body.
func scrape(t *testing.T, ts *httptest.Server) ([]string, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metrics.ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, metrics.ContentType)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	fams, err := metrics.ParseExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, buf.Bytes())
	}
	return fams, buf.Bytes()
}

// counterValue sums a family's series values from the registry.
func counterValue(reg *metrics.Registry, name string) float64 {
	var v float64
	for _, f := range reg.Snapshot() {
		if f.Name == name {
			for _, s := range f.Series {
				v += s.Value
			}
		}
	}
	return v
}

// TestMetricsScrapeMidCampaign scrapes /metrics while a campaign is
// held in flight by the slow-model gate, then again after a second
// identical submission, asserting the points and cache-hit counters
// moved and the exposition stays valid throughout.
func TestMetricsScrapeMidCampaign(t *testing.T) {
	ts, _, reg := newMetricsServer(t, 2)
	release := armSlowGate()
	defer release()

	spec := `{"name":"m","model":"slow-test","matrix":{"id":[1,2,3]}}`
	code, body := post(t, ts.URL+"/campaigns", spec)
	if code != http.StatusCreated {
		t.Fatalf("submit: %d %s", code, body)
	}
	var sub struct {
		ID string `json:"id"`
	}
	json.Unmarshal(body, &sub)

	// Mid-flight: the campaign gauge is up, points have started, the
	// exposition is valid while workers are actively writing.
	waitFor(t, func() bool { return counterValue(reg, "campaign_points_started_total") > 0 })
	fams, _ := scrape(t, ts)
	if !contains(fams, "campaign_points_started_total") || !contains(fams, "campaign_active_campaigns") {
		t.Fatalf("campaign families missing from scrape: %v", fams)
	}
	if v := counterValue(reg, "campaign_active_campaigns"); v != 1 {
		t.Errorf("campaign_active_campaigns mid-flight = %v, want 1", v)
	}

	// The live stats endpoint moves with the campaign.
	code, body = get(t, ts.URL+"/campaigns/"+sub.ID+"/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, body)
	}
	var live campaign.Live
	if err := json.Unmarshal(body, &live); err != nil {
		t.Fatalf("stats document: %v\n%s", err, body)
	}
	if live.State != campaign.JobRunning || live.Started == 0 {
		t.Errorf("mid-flight live = %+v, want running with started > 0", live)
	}

	release()
	waitDone(t, ts, sub.ID)

	// Same spec again: every point is served from the shared cache.
	code, body = post(t, ts.URL+"/campaigns", spec)
	if code != http.StatusCreated {
		t.Fatalf("resubmit: %d %s", code, body)
	}
	json.Unmarshal(body, &sub)
	waitDone(t, ts, sub.ID)

	fams, raw := scrape(t, ts)
	for _, want := range []string{"campaign_points_completed_total", "campaign_cache_hits_total"} {
		if !contains(fams, want) {
			t.Fatalf("%s missing from scrape:\n%s", want, raw)
		}
	}
	if v := counterValue(reg, "campaign_points_completed_total"); v < 6 {
		t.Errorf("campaign_points_completed_total = %v, want >= 6", v)
	}
	if v := counterValue(reg, "campaign_cache_hits_total"); v < 3 {
		t.Errorf("campaign_cache_hits_total = %v, want >= 3 (full resubmission)", v)
	}
	if v := counterValue(reg, "campaign_active_campaigns"); v != 0 {
		t.Errorf("campaign_active_campaigns settled at %v, want 0", v)
	}

	// Settled live stats account for every point.
	code, body = get(t, ts.URL+"/campaigns/"+sub.ID+"/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &live); err != nil {
		t.Fatal(err)
	}
	if live.Completed != 3 || live.Failed != 0 {
		t.Errorf("settled live = %+v, want 3 completed", live)
	}
}

// TestDebugTraceEmpty: without an armed capture the trace endpoint
// answers 404 with a JSON error, not an empty document.
func TestDebugTraceEmpty(t *testing.T) {
	ts, _, _ := newMetricsServer(t, 1)
	code, body := get(t, ts.URL+"/debug/trace")
	if code != http.StatusNotFound {
		t.Fatalf("GET /debug/trace with no capture: %d %s", code, body)
	}
}

// TestLiveMetricsGate drives a real simd process (the re-exec'd test
// binary) with the scheduler timeline armed through a sharded pipeline
// sweep, then checks that its live /metrics exposition parses and
// declares exactly the families in metrics.catalog, and that
// /debug/trace serves a non-empty Chrome trace. The capture lives in the
// child, so this process's par.LastTrace stays nil for
// TestDebugTraceEmpty.
func TestLiveMetricsGate(t *testing.T) {
	s := startService(t, freePort(t), t.TempDir(), "-simtrace", "1024")
	t.Cleanup(s.kill)

	code, body := post(t, s.url+"/campaigns", `{"name":"smoke","model":"pipeline",
		"params":{"blocks":2,"words_per_block":50},"matrix":{"depth":[1,4],"shards":[1,2]}}`)
	if code != http.StatusCreated {
		t.Fatalf("submit: %d %s", code, body)
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for st := pollStatus(t, s, created.ID); st.State != campaign.JobDone; st = pollStatus(t, s, created.ID) {
		if st.State != campaign.JobRunning || time.Now().After(deadline) {
			t.Fatalf("campaign state %s: %+v\nchild stderr:\n%s", st.State, st, s.stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code, body := get(t, s.url+"/campaigns/"+created.ID+"/stats"); code != http.StatusOK {
		t.Errorf("stats: %d %s", code, body)
	}

	_, expo := get(t, s.url+"/metrics")
	got, err := metrics.ParseExposition(bytes.NewReader(expo))
	if err != nil {
		t.Fatalf("live exposition does not parse: %v\n%s", err, expo)
	}
	want, err := metrics.ReadCatalog("../../metrics.catalog")
	if err != nil {
		t.Fatal(err)
	}
	if missing, extra := metrics.DiffFamilies(want, got); len(missing)+len(extra) > 0 {
		t.Errorf("live families diverge from metrics.catalog: missing %v, not in catalog %v", missing, extra)
	}

	code, body = get(t, s.url+"/debug/trace")
	if code != http.StatusOK {
		t.Fatalf("GET /debug/trace: %d %s", code, body)
	}
	var tl struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &tl); err != nil || len(tl.TraceEvents) == 0 {
		t.Errorf("/debug/trace is not a non-empty Chrome trace (err %v, %d events)", err, len(tl.TraceEvents))
	}
}

// TestHealthzBuildInfo: the liveness document carries uptime and build
// info alongside the original ok flag.
func TestHealthzBuildInfo(t *testing.T) {
	ts, _, _ := newMetricsServer(t, 1)
	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d %s", code, body)
	}
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if ok, _ := doc["ok"].(bool); !ok {
		t.Errorf("healthz ok = %v", doc["ok"])
	}
	if _, present := doc["uptime_s"]; !present {
		t.Errorf("healthz missing uptime_s: %s", body)
	}
	if _, present := doc["go"]; !present {
		t.Errorf("healthz missing go build info: %s", body)
	}
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}

// waitFor polls cond for up to 5 s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

// waitDone polls the status endpoint until the job settles.
func waitDone(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	waitFor(t, func() bool {
		_, body := get(t, ts.URL+"/campaigns/"+id)
		var st campaign.Status
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("status: %v: %s", err, body)
		}
		if st.State == campaign.JobFailed || st.State == campaign.JobCancelled {
			t.Fatalf("job %s settled as %s: %s", id, st.State, body)
		}
		return st.State == campaign.JobDone
	})
}
