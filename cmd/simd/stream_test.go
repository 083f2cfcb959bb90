package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/store"
)

func submitAndWait(t *testing.T, url, spec string) string {
	t.Helper()
	code, body := post(t, url+"/campaigns", spec)
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
	for {
		code, body = get(t, url+"/campaigns/"+created.ID)
		if code != http.StatusOK {
			t.Fatalf("status: %d %s", code, body)
		}
		var st campaign.Status
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == campaign.JobDone {
			return created.ID
		}
		if st.State != campaign.JobRunning || time.Now().After(deadline) {
			t.Fatalf("campaign state %s: %s", st.State, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStreamMatchesBuffered pins the streaming satellite's core contract:
// the streamed CSV is byte-identical to the buffered document, and the
// NDJSON rows carry the same objects in the same order.
func TestStreamMatchesBuffered(t *testing.T) {
	ts, _ := newTestServer(t)
	id := submitAndWait(t, ts.URL, `{
		"name": "st",
		"model": "kpn",
		"params": {"tokens": 6},
		"matrix": {"depth": [1, 2], "stages": [2, 3]}
	}`)
	base := ts.URL + "/campaigns/" + id + "/results"

	_, bufCSV := get(t, base+"?format=csv")
	code, streamCSV := get(t, base+"?format=csv&stream=1")
	if code != http.StatusOK {
		t.Fatalf("stream csv: %d %s", code, streamCSV)
	}
	if !bytes.Equal(bufCSV, streamCSV) {
		t.Errorf("streamed CSV differs from buffered:\n--- buffered\n%s\n--- streamed\n%s", bufCSV, streamCSV)
	}

	_, bufJSON := get(t, base)
	var doc resultsDoc
	if err := json.Unmarshal(bufJSON, &doc); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(base + "?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type = %q", ct)
	}
	nd, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(nd)), "\n")
	if len(lines) != len(doc.Points)+1 {
		t.Fatalf("stream has %d lines, want %d points + aggregate", len(lines), len(doc.Points))
	}
	for i, line := range lines[:len(lines)-1] {
		var pr campaign.PointResult
		if err := json.Unmarshal([]byte(line), &pr); err != nil {
			t.Fatalf("line %d: %v (%s)", i, err, line)
		}
		a, _ := json.Marshal(pr)
		b, _ := json.Marshal(doc.Points[i])
		if !bytes.Equal(a, b) {
			t.Errorf("stream row %d differs from document:\n%s\n%s", i, a, b)
		}
	}
	var agg struct {
		Aggregate *campaign.Aggregate `json:"aggregate"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &agg); err != nil || agg.Aggregate == nil {
		t.Fatalf("trailing line is not the aggregate: %s (%v)", lines[len(lines)-1], err)
	}
	if agg.Aggregate.Points != doc.Aggregate.Points {
		t.Errorf("stream aggregate = %+v, document = %+v", agg.Aggregate, doc.Aggregate)
	}
}

// TestStreamWhileRunning: the streaming endpoint answers 200 and holds
// the connection while the campaign still runs — where the buffered
// endpoint answers 409 — then completes the exact buffered bytes.
func TestStreamWhileRunning(t *testing.T) {
	release := armSlowGate()
	defer release()
	ts, _ := newTestServer(t)
	code, body := post(t, ts.URL+"/campaigns", `{"model": "slow-test", "matrix": {"id": [1, 2]}}`)
	if code != http.StatusCreated {
		t.Fatalf("submit: %d %s", code, body)
	}
	var created struct {
		ID string `json:"id"`
	}
	json.Unmarshal(body, &created)
	base := ts.URL + "/campaigns/" + created.ID + "/results"

	// Buffered: still 409.
	if code, _ := get(t, base); code != http.StatusConflict {
		t.Fatalf("buffered results while running: %d, want 409", code)
	}
	// Streaming: 200 immediately, body pending.
	resp, err := http.Get(base + "?stream=1&format=csv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream while running: %d, want 200", resp.StatusCode)
	}
	// The campaign really is still running while the stream is open.
	code, body = get(t, ts.URL+"/campaigns/"+created.ID)
	var st campaign.Status
	json.Unmarshal(body, &st)
	if code != http.StatusOK || st.State != campaign.JobRunning {
		t.Fatalf("status while stream open: %d %s", code, body)
	}

	release()
	streamed, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	// Settle, then compare against the buffered document.
	deadline := time.Now().Add(30 * time.Second)
	var buffered []byte
	for {
		code, buffered = get(t, base+"?format=csv")
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("results never settled: %d %s", code, buffered)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !bytes.Equal(streamed, buffered) {
		t.Errorf("mid-run stream differs from buffered document:\n--- streamed\n%s\n--- buffered\n%s", streamed, buffered)
	}
}

// TestCancelFinishedCampaign: cancelling a campaign that already
// completed answers 409 with a distinct "already complete" message and
// the unchanged status — not the 202 a live cancellation gets, and not
// a 404.
func TestCancelFinishedCampaign(t *testing.T) {
	ts, _ := newTestServer(t)
	id := submitAndWait(t, ts.URL, `{"model": "kpn", "params": {"tokens": 4}}`)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/campaigns/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE finished campaign: %d %s, want 409", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "already complete") {
		t.Errorf("409 body misses the already-complete message: %s", body)
	}
	var doc struct {
		Status campaign.Status `json:"status"`
	}
	if err := json.Unmarshal(body, &doc); err != nil || doc.Status.State != campaign.JobDone {
		t.Errorf("409 body status = %+v (%v), want done", doc.Status, err)
	}
}

// TestStreamBadFormat: format validation happens before streaming starts.
func TestStreamBadFormat(t *testing.T) {
	ts, _ := newTestServer(t)
	id := submitAndWait(t, ts.URL, `{"model": "kpn", "params": {"tokens": 4}}`)
	if code, _ := get(t, ts.URL+"/campaigns/"+id+"/results?stream=1&format=yaml"); code != http.StatusBadRequest {
		t.Errorf("stream with unknown format: %d, want 400", code)
	}
}

// TestStreamClosesWithAggregate streams many small campaigns back to
// back, each right after its submission: every NDJSON stream must end
// with the aggregate line (not a status document), and a buffered GET
// issued immediately after EOF must find the job settled.
func TestStreamClosesWithAggregate(t *testing.T) {
	// Journaled like a production simd: the job-finished record's sync
	// sits between the last point's publication and the job settling.
	st, _, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := campaign.NewEngine(campaign.Options{Workers: 2, Store: st})
	ts := httptest.NewServer(newServer(eng, nil))
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
		st.Close()
	})
	for i := 0; i < 250; i++ {
		code, body := post(t, ts.URL+"/campaigns", `{
			"name": "agg",
			"model": "kpn",
			"params": {"tokens": 4},
			"matrix": {"depth": [1, 2]}
		}`)
		if code != http.StatusCreated {
			t.Fatalf("campaign %d: submit: %d %s", i, code, body)
		}
		var created struct {
			Results string `json:"results"`
		}
		if err := json.Unmarshal(body, &created); err != nil {
			t.Fatal(err)
		}
		code, nd := get(t, ts.URL+created.Results+"?stream=1")
		if code != http.StatusOK {
			t.Fatalf("campaign %d: stream: %d %s", i, code, nd)
		}
		lines := strings.Split(strings.TrimSpace(string(nd)), "\n")
		var last struct {
			Aggregate *campaign.Aggregate `json:"aggregate"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || last.Aggregate == nil {
			t.Fatalf("campaign %d: stream ends with %s, want the aggregate line", i, lines[len(lines)-1])
		}
		if code, body := get(t, ts.URL+created.Results); code != http.StatusOK {
			t.Fatalf("campaign %d: buffered results right after stream EOF: %d %s", i, code, body)
		}
	}
}

// countingFlusher is a response recorder that counts the handler's
// flushes and reports the body length at each one.
type countingFlusher struct {
	*httptest.ResponseRecorder
	flushes int
	at      chan int // body length at each flush, when non-nil
}

func (c *countingFlusher) Flush() {
	c.flushes++
	c.ResponseRecorder.Flush()
	if c.at != nil {
		c.at <- c.Body.Len()
	}
}

// sweepSet is the 168-point shape of the repository benchmark's sweep
// workloads: 96 pipeline and 72 kpn points.
const sweepSet = `{
	"name": "sweep",
	"specs": [
		{"model": "pipeline", "params": {"blocks": 4, "words_per_block": 100},
		 "matrix": {"depth": [1, 2, 4, 16, 64, 256], "mode": ["TDless", "TDfull"], "seed": [1, 2, 3, 4, 5, 6, 7, 8]}},
		{"model": "kpn", "params": {"tokens": 64},
		 "matrix": {"stages": [2, 4, 8], "depth": [1, 4, 16], "seed": [1, 2, 3, 4, 5, 6, 7, 8]}}
	]
}`

// TestStreamFlushesOncePerWait pins the stream's flush policy: a settled
// job's rows are all ready, so the stream flushes three times (header
// with the first row, before waiting on the job, at the end) whatever
// its size, with the same bytes as the buffered document. A running
// job's header leaves before the handler waits for the first row: the
// response header alone for NDJSON, the CSV header line for CSV.
func TestStreamFlushesOncePerWait(t *testing.T) {
	eng := campaign.NewEngine(campaign.Options{Workers: 2})
	srv := newServer(eng, nil)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})
	id := submitAndWait(t, ts.URL, sweepSet)
	base := "/campaigns/" + id + "/results"
	for _, format := range []string{"json", "csv"} {
		rec := &countingFlusher{ResponseRecorder: httptest.NewRecorder()}
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, base+"?stream=1&format="+format, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s stream: %d %s", format, rec.Code, rec.Body)
		}
		if rec.flushes != 3 {
			t.Errorf("%s stream of a settled 168-point job flushed %d times, want 3", format, rec.flushes)
		}
		body := rec.Body.String()
		if format == "csv" {
			if _, buffered := get(t, ts.URL+base+"?format=csv"); body != string(buffered) {
				t.Errorf("streamed CSV differs from the buffered document")
			}
		} else if n := strings.Count(body, "\n"); n != 168+1 {
			t.Errorf("NDJSON stream has %d lines, want 168 rows + aggregate", n)
		}
	}

	// The CSV header line: the column names, comma-separated.
	csvHeader := len(strings.Join(campaign.CSVColumns, ",")) + 1
	for k, c := range []struct {
		format string
		first  int // body bytes of the first flush
		lines  int // lines of the whole stream
	}{
		{"json", 0, 2 + 1},        // 2 rows + aggregate
		{"csv", csvHeader, 1 + 2}, // header + 2 rows
	} {
		release := armSlowGate()
		code, body := post(t, ts.URL+"/campaigns", fmt.Sprintf(`{"model": "slow-test", "matrix": {"id": [%d, %d]}}`, 2*k+1, 2*k+2))
		if code != http.StatusCreated {
			release()
			t.Fatalf("submit: %d %s", code, body)
		}
		var created struct {
			Results string `json:"results"`
		}
		json.Unmarshal(body, &created)
		// The buffer holds every flush a two-point stream can make (at
		// most five), so the handler never blocks on the flushes not
		// received.
		rec := &countingFlusher{ResponseRecorder: httptest.NewRecorder(), at: make(chan int, 16)}
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, created.Results+"?stream=1&format="+c.format, nil))
		}()
		// The job is blocked on the gate: the first flush sends the
		// header and no row.
		if n := <-rec.at; n != c.first {
			t.Errorf("%s: first flush of a running job carried %d body bytes, want the %d-byte header alone", c.format, n, c.first)
		}
		release()
		<-done
		if n := strings.Count(rec.Body.String(), "\n"); n != c.lines {
			t.Errorf("%s: running job's stream has %d lines, want %d", c.format, n, c.lines)
		}
	}
}
