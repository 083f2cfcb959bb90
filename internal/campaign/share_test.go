package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/scenario"
)

// Test models of the sharing tests: "checkcount" counts its oracle calls
// (and can be told to fail them), "blockuntilcancel" runs until its
// context ends, so a job holding it can be cancelled mid-run.
var (
	checkCalls   atomic.Int64
	checkErrors  atomic.Bool
	blockStarted = make(chan struct{}, 1)
)

func init() {
	scenario.Register(scenario.Model{
		Name: "checkcount",
		Keys: []string{"n", "diff"},
		Run: func(_ context.Context, p scenario.Params) (scenario.Outcome, error) {
			r := scenario.NewReader(p)
			n := r.Int("n", 0)
			return scenario.Outcome{SimEndNS: int64(n), DatesHash: fmt.Sprintf("n%d", n)}, r.Err()
		},
		Check: func(_ context.Context, p scenario.Params) (string, error) {
			checkCalls.Add(1)
			if checkErrors.Load() {
				return "", errors.New("oracle unavailable")
			}
			r := scenario.NewReader(p)
			if r.Int("diff", 0) != 0 {
				return fmt.Sprintf("n=%d: dates differ", r.Int("n", 0)), nil
			}
			return "", nil
		},
	})
	scenario.Register(scenario.Model{
		Name: "blockuntilcancel",
		Keys: []string{"id"},
		Run: func(ctx context.Context, _ scenario.Params) (scenario.Outcome, error) {
			select {
			case blockStarted <- struct{}{}:
			default:
			}
			<-ctx.Done()
			return scenario.Outcome{}, ctx.Err()
		},
	})
}

// sweepSet is the bench's 168-point sweep shape (96 pipeline + 72 kpn
// points over 8 seeds), decoded from JSON as simd decodes it.
func sweepSet(t *testing.T) scenario.Set { return sweepSetFrom(t, 1) }

// sweepSetFrom is the sweep shape over seeds first..first+7: Sets with
// disjoint seed ranges share no point.
func sweepSetFrom(t *testing.T, first int) scenario.Set {
	t.Helper()
	seeds := make([]int, 8)
	for i := range seeds {
		seeds[i] = first + i
	}
	seedsJSON, _ := json.Marshal(seeds)
	set, err := scenario.ParseSet([]byte(fmt.Sprintf(`{"name":"sweep","specs":[
		{"model":"pipeline","params":{"blocks":4,"words_per_block":100},
		 "matrix":{"depth":[1,2,4,16,64,256],"mode":["TDless","TDfull"],"seed":%[1]s}},
		{"model":"kpn","params":{"tokens":64},
		 "matrix":{"stages":[2,4,8],"depth":[1,4,16],"seed":%[1]s}}]}`, seedsJSON)))
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// settle submits set and waits for its document.
func settle(t *testing.T, e *Engine, set scenario.Set) (*Job, *Results) {
	t.Helper()
	j, err := e.Submit(set)
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Wait(waitCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	return j, res
}

// streamRows walks the job's point stream and renders every row through
// the canonical streaming emitter. Safe to call from any goroutine.
func streamRows(t *testing.T, j *Job) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i := 0; i < j.NumPoints(); i++ {
		pr, err := j.StreamPoint(waitCtx(t), i)
		if err != nil {
			t.Errorf("StreamPoint(%d): %v", i, err)
			return nil
		}
		if _, err := StreamPointJSON(&buf, nil, &pr, false); err != nil {
			t.Error(err)
			return nil
		}
	}
	return buf.Bytes()
}

// retainedHeap is the in-use heap after two full collections.
func retainedHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// TestWarmJobsShareOutcomes: re-posting a Set shares, not copies — every
// job's row for a hash points at the cache's one record, and its views at
// the record's params and outcome bytes, the documents stay
// byte-identical, and a settled warm job of the bench's sweep shape
// retains at most 16 KB.
func TestWarmJobsShareOutcomes(t *testing.T) {
	e := NewEngine(Options{Workers: 2})
	defer e.Close()
	set := sweepSet(t)
	j0, res0 := settle(t, e, set)
	if res0.Aggregate.Errors != 0 || len(res0.rows) != 168 {
		t.Fatalf("first job: %d points, %d errors", len(res0.rows), res0.Aggregate.Errors)
	}
	doc0, rows0 := canonicalJSON(t, res0), streamRows(t, j0)
	points0 := res0.Points()
	for k := 1; k <= 3; k++ {
		j, res := settle(t, e, set)
		points := res.Points()
		if res.Timing.CacheHits != res.Aggregate.Unique {
			t.Errorf("re-post %d: %d cache hits, want %d", k, res.Timing.CacheHits, res.Aggregate.Unique)
		}
		for i := range res.rows {
			if res.rows[i].rec != res0.rows[i].rec {
				t.Errorf("re-post %d, point %d: row holds a copy, not the shared record", k, i)
			}
			p, p0 := points[i], points0[i]
			if &p.Outcome[0] != &p0.Outcome[0] {
				t.Errorf("re-post %d, point %d: outcome bytes are a copy, not the record's", k, i)
			}
			if &p.Params[0] != &p0.Params[0] {
				t.Errorf("re-post %d, point %d: params bytes are a copy, not the record's", k, i)
			}
		}
		if doc := canonicalJSON(t, res); !bytes.Equal(doc, doc0) {
			t.Errorf("re-post %d: results document differs from the first job's", k)
		}
		if rows := streamRows(t, j); !bytes.Equal(rows, rows0) {
			t.Errorf("re-post %d: streamed rows differ from the first job's", k)
		}
	}

	const jobs, budget = 100, 16 << 10
	before := retainedHeap()
	for k := 0; k < jobs; k++ {
		settle(t, e, set)
	}
	after := retainedHeap()
	perJob := (int64(after) - int64(before)) / jobs
	t.Logf("retained heap per settled warm job: %.1f KB", float64(perJob)/1024)
	if perJob > budget {
		t.Errorf("each settled warm job retains %d bytes, budget %d", perJob, budget)
	}
}

// TestColdRecordsCacheFootprint: a cold point's record holds canonical
// bytes, not decoded maps, and its settled job keeps a compact row, so
// each fresh point of the bench's sweep shape retains at most 600 bytes
// (record, its bytes, its table slot and the job's row).
func TestColdRecordsCacheFootprint(t *testing.T) {
	e := NewEngine(Options{Workers: 2, CheckEvery: 16})
	defer e.Close()
	const first = 1 << 20 // the bench's seed range
	settle(t, e, sweepSetFrom(t, first))

	const sets, budget = 20, 600
	before := retainedHeap()
	points := 0
	for k := 1; k <= sets; k++ {
		_, res := settle(t, e, sweepSetFrom(t, first+8*k))
		if res.Aggregate.Errors != 0 || res.Timing.CacheHits != 0 {
			t.Fatalf("set %d: %d errors, %d cache hits; want fresh, healthy points",
				k, res.Aggregate.Errors, res.Timing.CacheHits)
		}
		points += res.Aggregate.Unique
	}
	after := retainedHeap()
	perPoint := (int64(after) - int64(before)) / int64(points)
	t.Logf("retained heap per cold point: %d B over %d points", perPoint, points)
	if perPoint > budget {
		t.Errorf("each cold point retains %d bytes, budget %d", perPoint, budget)
	}
}

// TestSharedOutcomesConcurrentStreams: shared records are only ever read.
// Two settled jobs stream concurrently while an identical Set runs and a
// fourth job is cancelled mid-run; every document stays identical (and
// the run is clean under -race).
func TestSharedOutcomesConcurrentStreams(t *testing.T) {
	e := NewEngine(Options{Workers: 2})
	defer e.Close()
	set := scenario.Set{Name: "shared", Specs: []scenario.Spec{
		{Model: "kpn", Params: scenario.Params{"tokens": 16},
			Matrix: map[string][]any{"depth": {1, 2, 4}, "seed": {1, 2}}},
		{Model: "pipeline", Params: scenario.Params{"blocks": 2, "words_per_block": 50},
			Matrix: map[string][]any{"depth": {1, 4}, "mode": {"TDless", "TDfull"}}},
		{Model: "kpn", Params: scenario.Params{"tokens": 16, "depth": 2, "seed": 1}}, // dedup of point 2
	}}
	j1, res1 := settle(t, e, set)
	j2, _ := settle(t, e, set)
	doc, rows := canonicalJSON(t, res1), streamRows(t, j1)
	n := j1.NumPoints()

	var wg sync.WaitGroup
	streamed := make([][]byte, 8)
	for g := range streamed {
		j := j1
		if g%2 == 1 {
			j = j2
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := 0; i < n; i++ {
				pr, err := j.StreamPoint(context.Background(), i)
				if err != nil {
					t.Errorf("StreamPoint(%d): %v", i, err)
					return
				}
				StreamPointJSON(&buf, nil, &pr, false)
			}
			streamed[g] = buf.Bytes()
		}()
	}

	blocked := set
	blocked.Specs = append(append([]scenario.Spec(nil), set.Specs...),
		scenario.Spec{Model: "blockuntilcancel", Params: scenario.Params{"id": 1}})
	j4, err := e.Submit(blocked)
	if err != nil {
		t.Fatal(err)
	}
	j3, err := e.Submit(set)
	if err != nil {
		t.Fatal(err)
	}
	var rows3 []byte
	wg.Add(1)
	go func() { // walks j3 while it runs and settles
		defer wg.Done()
		rows3 = streamRows(t, j3)
	}()
	var rows4 bytes.Buffer
	for i := 0; i < n; i++ { // every shared row is out before the cut
		pr, err := j4.StreamPoint(waitCtx(t), i)
		if err != nil {
			t.Fatal(err)
		}
		StreamPointJSON(&rows4, nil, &pr, false)
	}
	select {
	case <-blockStarted:
	case <-waitCtx(t).Done():
		t.Fatal("the blocking point never started")
	}
	if got := e.Cancel(j4.ID()); got != CancelRequested {
		t.Fatalf("Cancel(mid-run job) = %v", got)
	}
	res3, err := j3.Wait(waitCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if res4, _ := j4.Wait(waitCtx(t)); res4 == nil {
		t.Fatal("the cancelled job kept no partial document")
	}
	wg.Wait()

	if st := j4.Status(); st.State != JobCancelled {
		t.Errorf("blocked job state %s, want cancelled", st.State)
	}
	if !bytes.Equal(rows4.Bytes(), rows) {
		t.Error("the cancelled job's shared rows differ from the first job's")
	}
	if pr, err := j4.StreamPoint(waitCtx(t), n); err != nil || pr.Err == "" {
		t.Errorf("the cancelled point: %+v, %v", pr, err)
	}
	for g, b := range streamed {
		if !bytes.Equal(b, rows) {
			t.Errorf("concurrent stream %d differs from the first job's rows", g)
		}
	}
	if !bytes.Equal(canonicalJSON(t, res3), doc) || !bytes.Equal(rows3, rows) {
		t.Error("the concurrently submitted job's document differs")
	}
	if !bytes.Equal(canonicalJSON(t, res1), doc) {
		t.Error("the first job's document changed while others streamed it")
	}
}

// TestCachedCheckVerdict: the spot check's verdict is kept beside the
// cached outcome, so a re-posted Set never re-runs the oracle and yields
// the identical document; a check that errored is not kept.
func TestCachedCheckVerdict(t *testing.T) {
	set := scenario.Set{Name: "checked", Specs: []scenario.Spec{
		{Model: "checkcount", Matrix: map[string][]any{"n": {0, 1, 2, 3, 4, 5}, "diff": {0, 1}}},
	}}
	calls := func() int64 { return checkCalls.Swap(0) }
	e := NewEngine(Options{Workers: 2, CheckEvery: 4})
	defer e.Close()

	checkErrors.Store(true)
	calls()
	_, res := settle(t, e, set)
	if got := calls(); got != 3 {
		t.Errorf("first post: %d Check calls, want 3 (indices 0, 4, 8)", got)
	}
	if res.Aggregate.Errors != 3 || res.Aggregate.Checked != 0 {
		t.Errorf("errored checks: aggregate %+v", res.Aggregate)
	}

	checkErrors.Store(false)
	_, res1 := settle(t, e, set)
	if got := calls(); got != 3 {
		t.Errorf("post after errored checks: %d Check calls, want 3 (errors are not kept)", got)
	}
	if a := res1.Aggregate; a.Errors != 0 || a.Checked != 3 || a.CheckFailures != 1 {
		t.Errorf("checked aggregate %+v, want 3 checked, 1 failure", a)
	}
	_, res2 := settle(t, e, set)
	if got := calls(); got != 0 {
		t.Errorf("re-post: %d Check calls, want 0", got)
	}
	if !bytes.Equal(canonicalJSON(t, res2), canonicalJSON(t, res1)) {
		t.Error("re-posted document differs from the checked one")
	}
}
