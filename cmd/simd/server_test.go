package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/scenario"
)

// The slow model blocks until released, so tests can observe a campaign
// mid-flight deterministically. The gate is re-armed per use so repeated
// runs in one process (go test -count=N) work.
var (
	slowMu   sync.Mutex
	slowGate = make(chan struct{})
)

func slowChan() chan struct{} {
	slowMu.Lock()
	defer slowMu.Unlock()
	return slowGate
}

// armSlowGate installs a fresh closed-over gate and returns its release
// function (idempotent).
func armSlowGate() (release func()) {
	slowMu.Lock()
	defer slowMu.Unlock()
	g := make(chan struct{})
	slowGate = g
	var once sync.Once
	return func() { once.Do(func() { close(g) }) }
}

func init() {
	scenario.Register(scenario.Model{
		Name: "slow-test",
		Keys: []string{"id"},
		Run: func(ctx context.Context, p scenario.Params) (scenario.Outcome, error) {
			select {
			case <-slowChan():
			case <-ctx.Done():
				return scenario.Outcome{}, ctx.Err()
			}
			return scenario.Outcome{SimEndNS: 1, CtxSwitches: 1}, nil
		},
	})
}

// resultsDoc is a results document as a client decodes it.
type resultsDoc struct {
	Name      string                 `json:"name"`
	Points    []campaign.PointResult `json:"points"`
	Aggregate campaign.Aggregate     `json:"aggregate"`
	Timing    *campaign.Timing       `json:"timing"`
}

func newTestServer(t *testing.T) (*httptest.Server, *campaign.Engine) {
	t.Helper()
	eng := campaign.NewEngine(campaign.Options{Workers: 2, CheckEvery: 2})
	ts := httptest.NewServer(newServer(eng, nil))
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})
	return ts, eng
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestCampaignRoundTrip drives a live campaign end to end over HTTP:
// submit, poll status to done, fetch JSON and CSV results.
func TestCampaignRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t)
	spec := `{
		"name": "rt",
		"model": "kpn",
		"params": {"tokens": 6},
		"matrix": {"depth": [1, 2], "stages": [2, 3]}
	}`
	code, body := post(t, ts.URL+"/campaigns", spec)
	if code != http.StatusCreated {
		t.Fatalf("submit: %d %s", code, body)
	}
	var created struct {
		ID     string `json:"id"`
		Points int    `json:"points"`
	}
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	if created.ID == "" || created.Points != 4 {
		t.Fatalf("created = %+v", created)
	}

	// Poll status until done.
	deadline := time.Now().Add(30 * time.Second)
	var st campaign.Status
	for {
		code, body = get(t, ts.URL+"/campaigns/"+created.ID)
		if code != http.StatusOK {
			t.Fatalf("status: %d %s", code, body)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == campaign.JobDone {
			break
		}
		if st.State == campaign.JobFailed {
			t.Fatalf("campaign failed: %+v", st)
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign still %s after 30s: %+v", st.State, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.Aggregate == nil || st.Aggregate.Points != 4 || st.Aggregate.Errors != 0 {
		t.Fatalf("done status: %+v", st)
	}

	// JSON results: deterministic (no timing), 4 points.
	code, body = get(t, ts.URL+"/campaigns/"+created.ID+"/results")
	if code != http.StatusOK {
		t.Fatalf("results: %d %s", code, body)
	}
	var res resultsDoc
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 || res.Timing != nil {
		t.Fatalf("results: %d points, timing %v", len(res.Points), res.Timing)
	}
	for _, p := range res.Points {
		if p.Outcome == nil || p.WallMS != 0 {
			t.Errorf("point %d: outcome %s, wall %v (want deterministic doc)", p.Index, p.Outcome, p.WallMS)
		}
	}

	// With ?wall=1 the timing section appears.
	_, body = get(t, ts.URL+"/campaigns/"+created.ID+"/results?wall=1")
	var withTiming resultsDoc
	if err := json.Unmarshal(body, &withTiming); err != nil {
		t.Fatal(err)
	}
	if withTiming.Timing == nil {
		t.Error("results?wall=1 misses the timing section")
	}

	// CSV results.
	code, body = get(t, ts.URL+"/campaigns/"+created.ID+"/results?format=csv")
	if code != http.StatusOK {
		t.Fatalf("csv results: %d", code)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 5 || !strings.HasPrefix(lines[0], "index,model,hash") {
		t.Fatalf("csv: %d lines, header %q", len(lines), lines[0])
	}

	// Campaign list includes it.
	_, body = get(t, ts.URL+"/campaigns")
	if !strings.Contains(string(body), created.ID) {
		t.Errorf("campaign list misses %s: %s", created.ID, body)
	}
}

// TestMalformedSpecs covers the 4xx paths of POST /campaigns.
func TestMalformedSpecs(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		name, body string
		wantCode   int
	}{
		{"broken JSON", `{"model": "pipeli`, http.StatusBadRequest},
		{"no model", `{"params": {"depth": 4}}`, http.StatusBadRequest},
		{"unknown model", `{"model": "warpdrive"}`, http.StatusBadRequest},
		{"unknown key", `{"model": "pipeline", "params": {"depthh": 4}}`, http.StatusBadRequest},
		{"empty axis", `{"model": "pipeline", "matrix": {"depth": []}}`, http.StatusBadRequest},
		{"fixed and swept", `{"model": "pipeline", "params": {"depth": 1}, "matrix": {"depth": [2]}}`, http.StatusBadRequest},
		{"non-scalar value", `{"model": "pipeline", "params": {"depth": {"a": 1}}}`, http.StatusBadRequest},
		{"oversize matrix", fmt.Sprintf(`{"model": "kpn", "matrix": {"tokens": [%s]}}`,
			strings.Trim(strings.Repeat("5,", 11000), ",")), http.StatusBadRequest},
	}
	for _, c := range cases {
		code, body := post(t, ts.URL+"/campaigns", c.body)
		if code != c.wantCode {
			t.Errorf("%s: status %d (want %d): %s", c.name, code, c.wantCode, body)
		}
		if !strings.Contains(string(body), `"error"`) {
			t.Errorf("%s: response carries no error field: %s", c.name, body)
		}
	}
}

// TestNotFoundAndBadRoutes covers 404/405 handling.
func TestNotFoundAndBadRoutes(t *testing.T) {
	ts, _ := newTestServer(t)
	if code, _ := get(t, ts.URL+"/campaigns/c999"); code != http.StatusNotFound {
		t.Errorf("status of unknown campaign: %d, want 404", code)
	}
	if code, _ := get(t, ts.URL+"/campaigns/c999/results"); code != http.StatusNotFound {
		t.Errorf("results of unknown campaign: %d, want 404", code)
	}
	resp, err := http.Get(ts.URL + "/campaigns/c999/results/extra")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("deep path: %d, want 404", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/campaigns", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /campaigns: %d, want 405", resp.StatusCode)
	}
}

// TestResultsWhileRunning pins the 409 contract using the gated model.
func TestResultsWhileRunning(t *testing.T) {
	release := armSlowGate()
	defer release() // never leave the engine's worker blocked
	ts, _ := newTestServer(t)
	code, body := post(t, ts.URL+"/campaigns", `{"model": "slow-test"}`)
	if code != http.StatusCreated {
		t.Fatalf("submit: %d %s", code, body)
	}
	var created struct {
		ID string `json:"id"`
	}
	json.Unmarshal(body, &created)

	code, body = get(t, ts.URL+"/campaigns/"+created.ID+"/results")
	if code != http.StatusConflict {
		t.Fatalf("results while running: %d %s, want 409", code, body)
	}
	var st campaign.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != campaign.JobRunning {
		t.Errorf("409 body state = %s, want running", st.State)
	}

	release() // let the model finish
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, body = get(t, ts.URL+"/campaigns/"+created.ID+"/results")
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("results never became available: %d %s", code, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code, _ := get(t, ts.URL+"/campaigns/"+created.ID+"/results?format=yaml"); code != http.StatusBadRequest {
		t.Errorf("unknown format: %d, want 400", code)
	}
}

// TestModelsAndHealth covers the discovery endpoints.
func TestModelsAndHealth(t *testing.T) {
	ts, _ := newTestServer(t)
	code, body := get(t, ts.URL+"/models")
	if code != http.StatusOK {
		t.Fatalf("models: %d", code)
	}
	for _, m := range []string{"pipeline", "soc", "soc-clustered", "kpn", "noc"} {
		if !strings.Contains(string(body), `"`+m+`"`) {
			t.Errorf("model %q missing from %s", m, body)
		}
	}
	code, body = get(t, ts.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(string(body), `"ok": true`) {
		t.Errorf("healthz: %d %s", code, body)
	}
}

// TestTopologyAxisSweep is the acceptance path of the netlist layer: a
// JSON campaign spec sweeping topology kind × shard count × partitioner,
// end to end through the HTTP service, with the dated-log digests of one
// topology identical across every partitioning.
func TestTopologyAxisSweep(t *testing.T) {
	ts, _ := newTestServer(t)
	spec := `{
		"name": "topo",
		"specs": [
			{"model": "netlist",
			 "params": {"kind": "mesh", "width": 2, "height": 2, "words": 8, "depth": 2},
			 "matrix": {"shards": [1, 2, 4], "partitioner": ["roundrobin", "mincut"]}},
			{"model": "netlist",
			 "params": {"words": 8, "depth": 2, "shards": 2},
			 "matrix": {"kind": ["chain", "ring", "tree"]}}
		]
	}`
	code, body := post(t, ts.URL+"/campaigns", spec)
	if code != http.StatusCreated {
		t.Fatalf("submit: %d %s", code, body)
	}
	var created struct {
		ID     string `json:"id"`
		Points int    `json:"points"`
	}
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	if created.Points != 9 {
		t.Fatalf("created = %+v, want 9 points", created)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st campaign.Status
		code, body = get(t, ts.URL+"/campaigns/"+created.ID)
		if code != http.StatusOK {
			t.Fatalf("status: %d %s", code, body)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == campaign.JobDone {
			break
		}
		if st.State == campaign.JobFailed || time.Now().After(deadline) {
			t.Fatalf("campaign state %s: %+v", st.State, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	code, body = get(t, ts.URL+"/campaigns/"+created.ID+"/results")
	if code != http.StatusOK {
		t.Fatalf("results: %d %s", code, body)
	}
	var res struct {
		Points []struct {
			Params  map[string]any `json:"params"`
			Error   string         `json:"error,omitempty"`
			Outcome *struct {
				DatesHash string `json:"dates_hash"`
				Counters  map[string]uint64
			} `json:"outcome,omitempty"`
		} `json:"points"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	meshDigests := map[string]bool{}
	kinds := map[string]bool{}
	for _, p := range res.Points {
		if p.Error != "" || p.Outcome == nil {
			t.Fatalf("point %v failed: %s", p.Params, p.Error)
		}
		kinds[fmt.Sprint(p.Params["kind"])] = true
		if p.Params["height"] != nil {
			meshDigests[p.Outcome.DatesHash] = true
		}
	}
	if len(meshDigests) != 1 {
		t.Errorf("mesh digests differ across shards × partitioners: %v", meshDigests)
	}
	for _, k := range []string{"mesh", "chain", "ring", "tree"} {
		if !kinds[k] {
			t.Errorf("kind %s missing from swept results", k)
		}
	}
}
