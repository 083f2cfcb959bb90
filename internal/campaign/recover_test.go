package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/store"
)

func waitCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func canonicalJSON(t *testing.T, res *Results) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.JSON(&buf, false); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEngineJournalAndRecover drives the full durability loop: an engine
// with a store journals a campaign, a second engine recovers the log,
// serves every journaled point from the rebuilt cache (zero
// recomputation) and reproduces the document byte for byte.
func TestEngineJournalAndRecover(t *testing.T) {
	dir := t.TempDir()
	st, rec, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Jobs) != 0 {
		t.Fatalf("fresh store recovered %d jobs", len(rec.Jobs))
	}
	e1 := NewEngine(Options{Workers: 2, Store: st})
	j1, err := e1.Submit(smallSet())
	if err != nil {
		t.Fatal(err)
	}
	res1, err := j1.Wait(waitCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	doc1 := canonicalJSON(t, res1)
	e1.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": recover the journal into a fresh engine.
	st2, rec2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if len(rec2.Jobs) != 1 || rec2.Jobs[0].State != store.JobFinished {
		t.Fatalf("recovered jobs = %+v", rec2.Jobs)
	}
	if len(rec2.Points) != res1.Aggregate.Unique {
		t.Fatalf("recovered %d points, want %d", len(rec2.Points), res1.Aggregate.Unique)
	}
	e2 := NewEngine(Options{Workers: 2, Store: st2})
	defer e2.Close()
	resumed, err := e2.Recover(rec2)
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 1 || resumed[0].ID() != j1.ID() {
		t.Fatalf("resumed = %v", resumed)
	}
	res2, err := resumed[0].Wait(waitCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Timing == nil || res2.Timing.CacheHits != res1.Aggregate.Unique {
		t.Errorf("resumed run recomputed points: timing = %+v, want %d cache hits",
			res2.Timing, res1.Aggregate.Unique)
	}
	for _, p := range res2.Points() {
		if !p.Dedup && !p.Cached {
			t.Errorf("point %d (%s) not served from the recovered cache", p.Index, p.Hash)
		}
	}
	if !resumed[0].Status().Resumed {
		t.Error("resumed job's status does not carry Resumed")
	}
	if doc2 := canonicalJSON(t, res2); !bytes.Equal(doc1, doc2) {
		t.Errorf("recovered document differs from original:\n--- original\n%s\n--- recovered\n%s", doc1, doc2)
	}

	// The id sequence resumes past the journaled ids.
	j2, err := e2.Submit(smallSet())
	if err != nil {
		t.Fatal(err)
	}
	if j2.ID() == j1.ID() {
		t.Errorf("id sequence restarted: new job reused %s", j2.ID())
	}
}

// TestRecoverInterruptedJob hand-writes the journal a crash mid-campaign
// leaves — a submission plus SOME completion records, no terminal record
// — and checks the resumed run reuses exactly the journaled points and
// still emits the uninterrupted document.
func TestRecoverInterruptedJob(t *testing.T) {
	set := smallSet()
	clean, err := Run(context.Background(), set, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cleanDoc := canonicalJSON(t, clean)

	dir := t.TempDir()
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := json.Marshal(set)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.JobSubmitted("c7", set.Name, clean.Aggregate.Points, clean.Aggregate.Unique, spec); err != nil {
		t.Fatal(err)
	}
	// Journal only the first unique point: the crash "happened" before
	// the rest completed.
	first := clean.Points()[0]
	if err := st.PointCompletedJSON(first.Hash, first.Outcome); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rec, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := rec.Interrupted(); len(got) != 1 || got[0].ID != "c7" {
		t.Fatalf("Interrupted = %v", got)
	}
	e := NewEngine(Options{Workers: 2, Store: st2})
	defer e.Close()
	resumed, err := e.Recover(rec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := resumed[0].Wait(waitCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Timing == nil || res.Timing.CacheHits != 1 {
		t.Errorf("timing = %+v, want exactly 1 cache hit (the journaled point)", res.Timing)
	}
	if doc := canonicalJSON(t, res); !bytes.Equal(cleanDoc, doc) {
		t.Errorf("resumed document differs from uninterrupted run:\n--- clean\n%s\n--- resumed\n%s", cleanDoc, doc)
	}

	// The resumed completion was journaled: a third scan sees c7 finished
	// and every unique point cached.
	e.Close()
	st2.Close()
	_, rec3, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec3.Interrupted()) != 0 {
		t.Errorf("c7 still interrupted after resumed run settled")
	}
	if len(rec3.Points) != clean.Aggregate.Unique {
		t.Errorf("journal holds %d points after resume, want %d", len(rec3.Points), clean.Aggregate.Unique)
	}
}

// TestRecoverCancelledTombstone: an explicitly-cancelled job is not
// resumed; it reappears settled, with no results document.
func TestRecoverCancelledTombstone(t *testing.T) {
	dir := t.TempDir()
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := json.Marshal(smallSet())
	st.JobSubmitted("c3", "doomed", 2, 2, spec)
	st.JobCancelled("c3")
	st.Close()

	st2, rec, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	e := NewEngine(Options{Workers: 2, Store: st2})
	defer e.Close()
	resumed, err := e.Recover(rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 0 {
		t.Fatalf("cancelled job was resumed: %v", resumed)
	}
	j, ok := e.Job("c3")
	if !ok {
		t.Fatal("tombstone not registered")
	}
	st3 := j.Status()
	if st3.State != JobCancelled || !st3.Resumed || st3.Error == "" {
		t.Errorf("tombstone status = %+v", st3)
	}
	res, jerr, done := j.Results()
	if !done || res != nil || jerr == nil {
		t.Errorf("tombstone results: res=%v err=%v done=%v", res, jerr, done)
	}
}

// TestCancelStatuses covers the three Cancel outcomes and checks the
// explicit cancellation reaches the journal as its own record.
func TestCancelStatuses(t *testing.T) {
	dir := t.TempDir()
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Options{Workers: 1, Store: st})

	if got := e.Cancel("nope"); got != CancelUnknown {
		t.Errorf("Cancel(unknown) = %v", got)
	}

	// A wide sweep so cancellation lands while points still run.
	j, err := e.Submit(scenario.Set{Specs: []scenario.Spec{
		{Model: "pipeline", Params: scenario.Params{"blocks": 8, "words_per_block": 400},
			Matrix: map[string][]any{"depth": []any{1, 2, 3, 4, 5, 6, 7, 8}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Cancel(j.ID()); got != CancelRequested {
		t.Errorf("Cancel(running) = %v", got)
	}
	j.Wait(waitCtx(t))
	if got := e.Cancel(j.ID()); got != CancelAlreadySettled {
		t.Errorf("Cancel(settled) = %v", got)
	}

	// A finished job also answers CancelAlreadySettled, and stays
	// finished in the journal.
	j2, err := e.Submit(smallSet())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j2.Wait(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	if got := e.Cancel(j2.ID()); got != CancelAlreadySettled {
		t.Errorf("Cancel(done) = %v", got)
	}

	e.Close()
	st.Close()
	_, rec, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	states := map[string]store.JobState{}
	for _, jr := range rec.Jobs {
		states[jr.ID] = jr.State
	}
	if states[j.ID()] != store.JobCancelled {
		t.Errorf("journal state of cancelled job = %s, want cancelled", states[j.ID()])
	}
	if states[j2.ID()] != store.JobFinished {
		t.Errorf("journal state of finished job = %s (Cancel on settled job must not journal)", states[j2.ID()])
	}
}

// TestStreamPointsMatchFinalDocument: walking StreamPoint 0..n-1 yields
// exactly the rows of the settled results document.
func TestStreamPointsMatchFinalDocument(t *testing.T) {
	e := NewEngine(Options{Workers: 2})
	defer e.Close()
	j, err := e.Submit(smallSet())
	if err != nil {
		t.Fatal(err)
	}
	ctx := waitCtx(t)
	var streamed []PointResult
	for i := 0; i < j.NumPoints(); i++ {
		pr, err := j.StreamPoint(ctx, i)
		if err != nil {
			t.Fatalf("StreamPoint(%d): %v", i, err)
		}
		canonicalizePoint(&pr)
		streamed = append(streamed, pr)
	}
	res, err := j.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != res.Aggregate.Points {
		t.Fatalf("streamed %d points, document has %d", len(streamed), res.Aggregate.Points)
	}
	points := res.Points()
	for i := range streamed {
		want := points[i]
		canonicalizePoint(&want)
		a, _ := json.Marshal(streamed[i])
		b, _ := json.Marshal(want)
		if !bytes.Equal(a, b) {
			t.Errorf("point %d: streamed %s != final %s", i, a, b)
		}
	}
}
