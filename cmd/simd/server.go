package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"time"

	"repro/internal/campaign"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/scenario"
)

// maxSpecBytes bounds a campaign submission body.
const maxSpecBytes = 1 << 20

// server routes the campaign API onto an engine. It is an http.Handler so
// tests drive it through httptest.
type server struct {
	eng   *campaign.Engine
	reg   *metrics.Registry
	mux   *http.ServeMux
	start time.Time
}

// newServer mounts the campaign API plus the observability surface:
// /metrics scrapes reg (a nil reg gets a fresh empty registry, so the
// endpoint is always a valid exposition), /campaigns/{id}/stats serves
// live counters, /debug/trace dumps the last captured scheduler
// timeline.
func newServer(eng *campaign.Engine, reg *metrics.Registry) *server {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &server{eng: eng, reg: reg, mux: http.NewServeMux(), start: time.Now()}
	s.mux.HandleFunc("GET /healthz", s.health)
	s.mux.HandleFunc("GET /metrics", s.metrics)
	s.mux.HandleFunc("GET /models", s.models)
	s.mux.HandleFunc("POST /campaigns", s.submit)
	s.mux.HandleFunc("GET /campaigns", s.list)
	s.mux.HandleFunc("GET /campaigns/{id}", s.status)
	s.mux.HandleFunc("DELETE /campaigns/{id}", s.cancel)
	s.mux.HandleFunc("GET /campaigns/{id}/results", s.results)
	s.mux.HandleFunc("GET /campaigns/{id}/stats", s.stats)
	s.mux.HandleFunc("GET /debug/trace", s.trace)
	return s
}

// ServeHTTP wraps the mux in the panic-recovery middleware: a handler
// panic answers 500 instead of tearing the connection (and, under
// net/http, only that connection) down with a stack dump to stderr.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if rec := recover(); rec != nil {
			debug.PrintStack()
			writeError(w, http.StatusInternalServerError, "internal error: %v", rec)
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// writeJSON emits one API response document.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	campaign.WriteJSON(w, v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *server) health(w http.ResponseWriter, r *http.Request) {
	doc := map[string]any{
		"ok":        true,
		"campaigns": len(s.eng.Jobs()),
		"uptime_s":  time.Since(s.start).Seconds(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		doc["go"] = bi.GoVersion
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				doc["revision"] = kv.Value
			}
		}
	}
	writeJSON(w, http.StatusOK, doc)
}

// metrics serves the registry in Prometheus text exposition format.
func (s *server) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metrics.ContentType)
	s.reg.WritePrometheus(w)
}

// stats serves a campaign's live counters — unlike /results this works
// (and moves) while the campaign runs.
func (s *server) stats(w http.ResponseWriter, r *http.Request) {
	job, ok := s.eng.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, job.Live())
}

// trace serves the most recent scheduler timeline as Chrome trace_event
// JSON (loadable in chrome://tracing or ui.perfetto.dev). Capture is
// armed by the -simtrace flag; until a multi-shard run completes there
// is nothing to serve and the endpoint answers 404.
func (s *server) trace(w http.ResponseWriter, r *http.Request) {
	tl := par.LastTrace()
	if tl == nil {
		writeError(w, http.StatusNotFound, "no timeline captured (start simd with -simtrace and run a multi-shard campaign)")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	tl.WriteChromeTrace(w)
}

func (s *server) models(w http.ResponseWriter, r *http.Request) {
	type modelDoc struct {
		Name string   `json:"name"`
		Keys []string `json:"keys"`
	}
	var docs []modelDoc
	for _, name := range scenario.Models() {
		m, _ := scenario.Lookup(name)
		docs = append(docs, modelDoc{Name: m.Name, Keys: m.Keys})
	}
	writeJSON(w, http.StatusOK, map[string]any{"models": docs})
}

// submit accepts a Spec or Set document and starts a campaign. The body
// is bounded by http.MaxBytesReader (413 beyond it); a full job queue
// answers 429 with a Retry-After.
func (s *server) submit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, "spec exceeds %d bytes", maxSpecBytes)
			return
		}
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	set, err := scenario.ParseSet(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	job, err := s.eng.Submit(set)
	if err != nil {
		if errors.Is(err, campaign.ErrBusy) {
			w.Header().Set("Retry-After", "5")
			writeError(w, http.StatusTooManyRequests, "%v", err)
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	st := job.Status()
	w.Header().Set("Location", "/campaigns/"+job.ID())
	writeJSON(w, http.StatusCreated, map[string]any{
		"id":      job.ID(),
		"points":  st.Points,
		"unique":  st.Total,
		"status":  "/campaigns/" + job.ID(),
		"results": "/campaigns/" + job.ID() + "/results",
	})
}

func (s *server) list(w http.ResponseWriter, r *http.Request) {
	jobs := s.eng.Jobs()
	statuses := make([]campaign.Status, len(jobs))
	for i, j := range jobs {
		statuses[i] = j.Status()
	}
	writeJSON(w, http.StatusOK, map[string]any{"campaigns": statuses})
}

// cancel interrupts a running campaign cooperatively; the partial
// results stay available. A campaign that already settled answers 409
// with its (unchanged) status — distinct from the 202 a live
// cancellation gets — and no cancellation is journaled, so a finished
// job keeps its real terminal state across restarts.
func (s *server) cancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	switch s.eng.Cancel(id) {
	case campaign.CancelUnknown:
		writeError(w, http.StatusNotFound, "no campaign %q", id)
	case campaign.CancelAlreadySettled:
		job, _ := s.eng.Job(id)
		st := job.Status()
		writeJSON(w, http.StatusConflict, map[string]any{
			"error":  fmt.Sprintf("campaign %q already complete (state %s): nothing to cancel", id, st.State),
			"status": st,
		})
	default: // CancelRequested
		job, _ := s.eng.Job(id)
		writeJSON(w, http.StatusAccepted, job.Status())
	}
}

func (s *server) status(w http.ResponseWriter, r *http.Request) {
	job, ok := s.eng.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

// results serves the finished document as JSON (default) or CSV
// (?format=csv). Wall-clock timing is included only with ?wall=1, keeping
// the default document deterministic. A still-running campaign answers
// 409 with the progress snapshot — unless ?stream=1 is set, which serves
// completed points incrementally instead of waiting (see stream).
func (s *server) results(w http.ResponseWriter, r *http.Request) {
	job, ok := s.eng.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	format := r.URL.Query().Get("format")
	if format != "" && format != "json" && format != "csv" {
		writeError(w, http.StatusBadRequest, "unknown format %q (want json or csv)", format)
		return
	}
	includeWall := r.URL.Query().Get("wall") == "1"
	if r.URL.Query().Get("stream") == "1" {
		s.stream200(w, r, job, format, includeWall)
		return
	}
	res, jobErr, done := job.Results()
	if !done {
		writeJSON(w, http.StatusConflict, job.Status())
		return
	}
	if jobErr != nil && res == nil {
		if job.Status().State == campaign.JobCancelled {
			writeError(w, http.StatusGone, "campaign %q was cancelled before a restart; its partial results were not retained", job.ID())
			return
		}
		writeError(w, http.StatusInternalServerError, "campaign failed: %v", jobErr)
		return
	}
	switch format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		res.JSON(w, includeWall)
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		res.WriteCSV(w, includeWall)
	}
}

// stream200 serves the results incrementally: rows are written as
// points complete, in expansion order, instead of answering 409 until
// the campaign settles. CSV output is the exact buffered document —
// same header, same column order, same bytes once complete. JSON output
// is newline-delimited: one compact PointResult object per line in the
// buffered document's field order, then one final line carrying the
// aggregate (or the job status, if the campaign was cut short). A client
// disconnect just abandons the walk; the campaign is unaffected.
//
// Rows are flushed once per wait, not once per row: the header leaves
// with the first row (or alone, if the first row is not ready), then the
// written rows leave only when the next one is not ready yet, before
// waiting on the job, and at the end. A settled job streams with three
// flushes whatever its size.
func (s *server) stream200(w http.ResponseWriter, r *http.Request, job *campaign.Job, format string, includeWall bool) {
	n := job.NumPoints()
	if n == 0 {
		writeError(w, http.StatusGone, "campaign %q retained no streamable points", job.ID())
		return
	}
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	emitJSON := format == "" || format == "json"
	var csvw *campaign.CSV
	if emitJSON {
		w.Header().Set("Content-Type", "application/x-ndjson")
	} else {
		w.Header().Set("Content-Type", "text/csv")
		csvw = campaign.NewCSV(w, campaign.CSVColumns...)
	}
	w.WriteHeader(http.StatusOK)
	if csvw != nil {
		// NewCSV buffers the header in the column writer: move it into
		// the response so the first flush carries it.
		csvw.Flush()
	}
	var line []byte
	for i := 0; i < n; i++ {
		if !job.PointReady(i) {
			flush()
		}
		pr, err := job.StreamPoint(r.Context(), i)
		if err != nil {
			return // client went away (or the job retained nothing)
		}
		if emitJSON {
			if line, err = campaign.StreamPointJSON(w, line, &pr, includeWall); err != nil {
				return
			}
		} else {
			if err := campaign.StreamPointCSV(csvw, &pr, includeWall); err != nil {
				return
			}
		}
		if i == 0 {
			flush()
		}
	}
	flush()
	// The last point is published before the job stores its document and
	// settles, so wait for the job itself: the stream then always closes
	// with the aggregate, and a buffered GET after EOF answers 200.
	res, _ := job.Wait(r.Context())
	if emitJSON {
		if res != nil {
			campaign.StreamAggregateJSON(w, res)
		} else {
			campaign.WriteJSON(w, map[string]any{"status": job.Status()})
		}
	} else if csvw != nil {
		csvw.Flush()
	}
	flush()
}
