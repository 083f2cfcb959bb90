package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// The sweep workloads drive a freshly built cmd/simd over HTTP: the
// repository's end-to-end path (submit → expansion/dedup → worker →
// kernel run → WAL append → result served). Closed loop, one connection:
// the next campaign is posted only after the previous stream hit EOF.

// sweepPoints is the size of every sweep Set (96 pipeline + 72 kpn).
const sweepPoints = 168

// sweepDoc renders the 168-point Set over the given 8 scenario seeds.
// Tiny points on purpose: netlist build/teardown, the campaign engine
// and the store carry about as much of each point as the kernel does.
func sweepDoc(seeds [8]int64) []byte {
	doc := map[string]any{
		"name": "sweep",
		"specs": []any{
			map[string]any{
				"model":  "pipeline",
				"params": map[string]any{"blocks": 4, "words_per_block": 100},
				"matrix": map[string]any{
					"depth": []int{1, 2, 4, 16, 64, 256},
					"mode":  []string{"TDless", "TDfull"},
					"seed":  seeds,
				},
			},
			map[string]any{
				"model":  "kpn",
				"params": map[string]any{"tokens": 64},
				"matrix": map[string]any{
					"stages": []int{2, 4, 8},
					"depth":  []int{1, 4, 16},
					"seed":   seeds,
				},
			},
		},
	}
	b, err := json.Marshal(doc)
	if err != nil {
		panic(fmt.Sprintf("bench: sweep document: %v", err)) // literal maps of scalars: a bug, not input
	}
	return b
}

// sweepSeeds derives the 8 scenario seeds of set ordinal k from the
// benchmark seed. Ordinals never repeat within a simd instance, so a
// cold op never meets a cached point; values stay below 2^53 so they
// survive JSON's float64 numbers exactly.
func sweepSeeds(benchSeed int64, k int) [8]int64 {
	const m = 1 << 30
	base := ((benchSeed%m+m)%m+1)*(1<<20) + int64(k)*8
	var s [8]int64
	for j := range s {
		s[j] = base + int64(j)
	}
	return s
}

// tailBuffer keeps the last cap bytes written: the child's recent stderr,
// printed when an op fails.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
	cap int
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.cap {
		t.buf = t.buf[len(t.buf)-t.cap:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// simdProc is one running simd child.
type simdProc struct {
	cmd      *exec.Cmd
	base     string // http://127.0.0.1:port
	storeDir string // "" when started without -store
	stderr   *tailBuffer
	client   *http.Client
	bootMS   float64
	exited   chan struct{}
}

// freePort asks the kernel for an unused loopback port by binding port 0
// and releasing it.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startSimd execs bin on a free loopback port, with a journal in a fresh
// directory under tmp when withStore, and waits for /healthz. Every other
// flag keeps its default except -simtrace on traced runs and whatever
// the workload passes in extra.
func startSimd(bin, tmp string, withStore, simtrace bool, extra ...string) (*simdProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("simd: picking a port: %w", err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := []string{"-addr", addr}
	s := &simdProc{base: "http://" + addr, stderr: &tailBuffer{cap: 8 << 10}, exited: make(chan struct{})}
	if withStore {
		if s.storeDir, err = os.MkdirTemp(tmp, "simd-store-"); err != nil {
			return nil, fmt.Errorf("simd: %w", err)
		}
		args = append(args, "-store", s.storeDir)
	}
	if simtrace {
		args = append(args, "-simtrace", "4096")
	}
	args = append(args, extra...)
	// One connection, as a closed-loop client with one user has.
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	s.cmd = exec.Command(bin, args...)
	// The child inherits the harness's CPU pin, under which the Go runtime
	// would count one CPU; it gets the box's P (and so worker) count
	// explicitly, as it would have unpinned.
	s.cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", runtime.NumCPU()))
	s.cmd.Stderr = s.stderr
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		s.removeStore()
		return nil, fmt.Errorf("simd: %w", err)
	}
	go func() {
		s.cmd.Wait() // exit status is irrelevant: stop() kills on purpose, boot failure is seen by healthz
		close(s.exited)
	}()
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case <-s.exited:
			s.removeStore()
			return nil, fmt.Errorf("simd exited during boot; stderr:\n%s", s.stderr)
		default:
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("simd not healthy after 15s; stderr:\n%s", s.stderr)
		}
		time.Sleep(time.Millisecond)
	}
	s.bootMS = ms(time.Since(t0))
	return s, nil
}

func (s *simdProc) removeStore() {
	if s.storeDir != "" {
		os.RemoveAll(s.storeDir)
	}
}

// halt stops the child and waits for it: SIGTERM for a graceful drain (so
// the journal tail is committed), SIGKILL if it has not exited within 5 s.
// The journal stays on disk for the caller.
func (s *simdProc) halt() {
	s.client.CloseIdleConnections()
	select {
	case <-s.exited:
		return
	default:
	}
	s.cmd.Process.Signal(syscall.SIGTERM) // a child that already exited is handled by the wait below
	select {
	case <-s.exited:
	case <-time.After(5 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

// stop halts the child and removes its journal.
func (s *simdProc) stop() {
	s.halt()
	s.removeStore()
}

// get fetches path and returns status, body and the request's wall time.
func (s *simdProc) get(ctx context.Context, path string) (int, []byte, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return 0, nil, 0, err
	}
	t0 := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, time.Since(t0), err
}

// sweepRun is the raw outcome of one campaign: timings taken on the wire
// and the streamed document, parsed only after the clock stopped.
type sweepRun struct {
	id    string
	ack   time.Duration // POST sent → 201
	first time.Duration // POST sent → first streamed result line
	done  time.Duration // POST sent → stream EOF
	lines [][]byte      // one per point, then the aggregate line
}

// submitAndStream posts doc and reads the campaign's NDJSON stream to
// EOF, recording one span per request under parent.
func (s *simdProc) submitAndStream(ctx context.Context, doc []byte, tr *tracer, parent *spanRef, op int) (sweepRun, error) {
	var run sweepRun
	sp := tr.begin("simd.POST /campaigns", parent, op)
	defer func() { sp.done() }() // closes whichever request span is open on return
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/campaigns", bytes.NewReader(doc))
	if err != nil {
		return run, err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return run, fmt.Errorf("POST /campaigns: %w", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	run.ack = time.Since(t0)
	if err != nil {
		return run, fmt.Errorf("POST /campaigns: %w", err)
	}
	if resp.StatusCode != http.StatusCreated {
		return run, fmt.Errorf("POST /campaigns: status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var ack struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &ack); err != nil || ack.ID == "" {
		return run, fmt.Errorf("POST /campaigns: unreadable acknowledgement %q", body)
	}
	run.id = ack.ID
	sp.done()
	sp = tr.begin("simd.GET results?stream=1", parent, op)

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/campaigns/"+ack.ID+"/results?stream=1", nil)
	if err != nil {
		return run, err
	}
	resp, err = s.client.Do(req)
	if err != nil {
		return run, fmt.Errorf("GET results stream: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body) // best-effort detail for the error text
		return run, fmt.Errorf("GET results stream: status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	rd := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, err := rd.ReadBytes('\n')
		if len(line) > 0 {
			if len(run.lines) == 0 {
				run.first = time.Since(t0)
			}
			run.lines = append(run.lines, line)
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return run, fmt.Errorf("GET results stream: %w", err)
		}
	}
	run.done = time.Since(t0)
	return run, nil
}

// pointLine is the part of a streamed PointResult the checks read.
type pointLine struct {
	Index  int            `json:"index"`
	Model  string         `json:"model"`
	Params map[string]any `json:"params"`
	Err    string         `json:"error"`
	Diff   string         `json:"check_diff"`
	Stall  any            `json:"stall"`
	Out    *struct {
		SimEndNS  int64             `json:"sim_end_ns"`
		DatesHash string            `json:"dates_hash"`
		Counters  map[string]uint64 `json:"counters"`
	} `json:"outcome"`
}

// sweepCheck is the verdict on one streamed campaign.
type sweepCheck struct {
	points      int // point lines seen
	failed      int // point lines with an error, a spot-check diff or no outcome
	words       uint64
	ctxSwitches uint64  // aggregate.total_ctx_switches (0 when the stream closed unsettled)
	dateErrNS   float64 // largest sim_end gap across TDless/TDfull pairs whose dates differ
	// unsettled: the stream closed with the job's status instead of the
	// aggregate. simd serves the last point the moment its worker
	// publishes it, which can be before the job goroutine has stored the
	// results document; the points are complete either way, so this is
	// counted, not failed (README, "findings").
	unsettled bool
	firstErr  string
}

// splitStream separates the compact one-line point reports from the
// closing document (the aggregate line, or an indented status document).
func splitStream(lines [][]byte) (points [][]byte, trailer []byte) {
	n := 0
	for n < len(lines) && bytes.HasPrefix(lines[n], []byte(`{"index":`)) {
		n++
	}
	return lines[:n], bytes.Join(lines[n:], nil)
}

// checkSweep validates a streamed campaign document: every point line
// must carry an outcome and no error, the stream must close with the
// aggregate (or the status of a job caught settling), and every
// TDless/TDfull pair with equal (depth, seed) must agree on dates_hash —
// the paper's claim, checked on served results.
func checkSweep(lines [][]byte) sweepCheck {
	var c sweepCheck
	note := func(format string, args ...any) {
		if c.firstErr == "" {
			c.firstErr = fmt.Sprintf(format, args...)
		}
	}
	points, trailer := splitStream(lines)
	type pairKey struct{ depth, seed float64 }
	type pairVal struct {
		hash   string
		simEnd int64
	}
	pairs := map[pairKey]map[string]pairVal{}
	for _, raw := range points {
		c.points++
		var p pointLine
		if err := json.Unmarshal(raw, &p); err != nil {
			c.failed++
			note("unreadable point line: %v", err)
			continue
		}
		if p.Err != "" || p.Diff != "" || p.Stall != nil || p.Out == nil {
			c.failed++
			note("point %d (%s %v): error %q check_diff %q", p.Index, p.Model, p.Params, p.Err, p.Diff)
			continue
		}
		c.words += p.Out.Counters["words"]
		if p.Model == "pipeline" {
			depth, _ := p.Params["depth"].(float64)
			seed, _ := p.Params["seed"].(float64)
			mode, _ := p.Params["mode"].(string)
			k := pairKey{depth, seed}
			if pairs[k] == nil {
				pairs[k] = map[string]pairVal{}
			}
			pairs[k][mode] = pairVal{p.Out.DatesHash, p.Out.SimEndNS}
		}
	}
	for k, m := range pairs {
		ref, okR := m["TDless"]
		got, okG := m["TDfull"]
		if !okR || !okG {
			continue // a failed half is already counted above
		}
		if ref.hash != got.hash {
			gap := float64(got.simEnd - ref.simEnd)
			// Differing logs with equal end dates still differ: report
			// at least one nanosecond so the figure cannot read as exact.
			c.dateErrNS = max(c.dateErrNS, max(gap, -gap, 1))
			c.failed++
			note("depth %v seed %v: TDfull dates %s differ from TDless %s", k.depth, k.seed, got.hash, ref.hash)
		}
	}
	var tail struct {
		Aggregate *struct {
			Points        int    `json:"points"`
			Errors        int    `json:"errors"`
			CheckFailures int    `json:"check_failures"`
			CtxSwitches   uint64 `json:"total_ctx_switches"`
		} `json:"aggregate"`
		Status *struct {
			State string `json:"state"`
		} `json:"status"`
	}
	if err := json.Unmarshal(trailer, &tail); err != nil || (tail.Aggregate == nil && tail.Status == nil) {
		c.failed++
		note("stream closed with neither the aggregate nor a status: %q", bytes.TrimSpace(trailer))
		return c
	}
	if tail.Aggregate == nil {
		c.unsettled = true
		if tail.Status.State != "running" && tail.Status.State != "done" {
			c.failed++
			note("stream closed on a job in state %q", tail.Status.State)
		}
		return c
	}
	c.ctxSwitches = tail.Aggregate.CtxSwitches
	if tail.Aggregate.Points != c.points || tail.Aggregate.Errors != 0 || tail.Aggregate.CheckFailures != 0 {
		c.failed++
		note("aggregate reports %d points, %d errors, %d check failures; stream carried %d points",
			tail.Aggregate.Points, tail.Aggregate.Errors, tail.Aggregate.CheckFailures, c.points)
	}
	return c
}

// buildSimd compiles cmd/simd from the enclosing checkout into dir and
// returns the binary's path and the build's wall time. The output path
// is stable, so a second run in the same build directory relinks nothing.
func buildSimd(ctx context.Context, dir string) (string, time.Duration, error) {
	bin := filepath.Join(dir, "simd")
	t0 := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "repro/cmd/simd")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", 0, fmt.Errorf("go build repro/cmd/simd: %v\n%s", err, out)
	}
	return bin, time.Since(t0), nil
}
