package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// wedge-test is a deliberately livelocked model (delta-cycle ping-pong
// frozen at date 0) for exercising the CLI's stall exit path.
func init() {
	scenario.Register(scenario.Model{
		Name: "wedge-test",
		Keys: []string{"shards"},
		Run: func(ctx context.Context, p scenario.Params) (scenario.Outcome, error) {
			r := scenario.NewReader(p)
			w := chaos.Workload{Words: 32, Shards: r.Int("shards", 2), Wedge: true}
			if err := r.Err(); err != nil {
				return scenario.Outcome{}, err
			}
			b, fp := w.Build()
			defer b.Shutdown()
			if err := b.RunGuarded(ctx, sim.RunForever); err != nil {
				return scenario.Outcome{}, err
			}
			return scenario.Outcome{DatesHash: fmt.Sprintf("%016x", fp())}, nil
		},
	})
}

// TestGoldenSmoke pins the smoke campaign: the checked-in spec must
// reproduce the checked-in results byte for byte, at 1, 4 and 8 workers.
// Regenerate the golden with:
//
//	go run ./cmd/campaign -spec cmd/campaign/testdata/smoke.json -check-every 5 -o cmd/campaign/testdata/smoke.golden.json
func TestGoldenSmoke(t *testing.T) {
	golden, err := os.ReadFile("testdata/smoke.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		var out, errBuf bytes.Buffer
		code := run([]string{
			"-spec", "testdata/smoke.json",
			"-check-every", "5",
			"-workers", strconv.Itoa(workers),
		}, &out, &errBuf)
		if code != 0 {
			t.Fatalf("workers=%d: exit %d, stderr: %s", workers, code, errBuf.String())
		}
		if out.String() != string(golden) {
			t.Errorf("workers=%d: output drifted from testdata/smoke.golden.json\nstderr: %s\n(regenerate if the change is intended)",
				workers, errBuf.String())
		}
	}
}

func TestCSVOutput(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run([]string{"-spec", "testdata/smoke.json", "-format", "csv"}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 21 { // header + 20 points
		t.Fatalf("%d CSV lines, want 21", len(lines))
	}
	if !strings.HasPrefix(lines[0], "index,model,hash") {
		t.Errorf("header: %q", lines[0])
	}
}

func TestModelsFlag(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-models"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, m := range []string{"pipeline", "soc", "soc-clustered", "kpn", "noc"} {
		if !strings.Contains(out.String(), m) {
			t.Errorf("models listing misses %q:\n%s", m, out.String())
		}
	}
}

func TestExitCodes(t *testing.T) {
	tmp := t.TempDir() + "/bad.json"
	os.WriteFile(tmp, []byte(`{"model":"pipeline","matrix":{"mode":["TDfull","warp"]}}`), 0o644)
	var out, errBuf bytes.Buffer
	if code := run([]string{"-spec", tmp}, &out, &errBuf); code != 1 {
		t.Errorf("campaign with a failing point: exit %d, want 1 (stderr: %s)", code, errBuf.String())
	}
	if code := run([]string{"-spec", "testdata/nope.json"}, &out, &errBuf); code != 2 {
		t.Errorf("missing spec file: exit %d, want 2", code)
	}
	if code := run([]string{}, &out, &errBuf); code != 2 {
		t.Errorf("no -spec: exit %d, want 2", code)
	}
	if code := run([]string{"-spec", tmp, "-format", "xml"}, &out, &errBuf); code != 2 {
		t.Errorf("bad format: exit %d, want 2", code)
	}
	bad := t.TempDir() + "/unknown.json"
	os.WriteFile(bad, []byte(`{"model":"warpdrive"}`), 0o644)
	if code := run([]string{"-spec", bad}, &out, &errBuf); code != 2 {
		t.Errorf("unknown model: exit %d, want 2", code)
	}
}

// TestStallExitCode pins the CLI end of the robustness contract: a
// wedged model under -stall terminates within the window, exits 2, and
// prints the structured stall diagnostic (stuck shard + frontier) to
// stderr.
func TestStallExitCode(t *testing.T) {
	spec := t.TempDir() + "/wedge.json"
	os.WriteFile(spec, []byte(`{"model":"wedge-test","params":{"shards":2}}`), 0o644)
	var out, errBuf bytes.Buffer
	code := run([]string{"-spec", spec, "-stall", "80ms", "-timeout", "5s"}, &out, &errBuf)
	if code != 2 {
		t.Fatalf("stalled campaign: exit %d, want 2 (stderr: %s)", code, errBuf.String())
	}
	msg := errBuf.String()
	for _, want := range []string{"stalled", "shard", "1 stalled points"} {
		if !strings.Contains(msg, want) {
			t.Errorf("stderr misses %q:\n%s", want, msg)
		}
	}
	if !strings.Contains(out.String(), `"stall"`) {
		t.Errorf("results document misses the stall diagnostic:\n%s", out.String())
	}
}

// TestGoldenMesh pins the topology-axis smoke: a mesh swept across
// shard counts × partitioners must reproduce the checked-in golden at any
// worker count — and, structurally, every (shards, partitioner) cell of
// the sweep must carry the same dated-log digest and checksums (the
// bridge auto-insertion exactness claim). Regenerate with:
//
//	go run ./cmd/campaign -spec cmd/campaign/testdata/mesh.json -check-every 3 -o cmd/campaign/testdata/mesh.golden.json
func TestGoldenMesh(t *testing.T) {
	golden, err := os.ReadFile("testdata/mesh.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		var out, errBuf bytes.Buffer
		code := run([]string{
			"-spec", "testdata/mesh.json",
			"-check-every", "3",
			"-workers", strconv.Itoa(workers),
		}, &out, &errBuf)
		if code != 0 {
			t.Fatalf("workers=%d: exit %d, stderr: %s", workers, code, errBuf.String())
		}
		if out.String() != string(golden) {
			t.Errorf("workers=%d: output drifted from testdata/mesh.golden.json\nstderr: %s\n(regenerate if the change is intended)",
				workers, errBuf.String())
		}
	}
	var doc struct {
		Points []struct {
			Params  map[string]any `json:"params"`
			Outcome struct {
				DatesHash string   `json:"dates_hash"`
				Checksums []uint64 `json:"checksums"`
			} `json:"outcome"`
		} `json:"points"`
	}
	if err := json.Unmarshal(golden, &doc); err != nil {
		t.Fatal(err)
	}
	digests := map[string]bool{}
	n := 0
	for _, p := range doc.Points {
		if p.Params["kind"] == "mesh" && p.Params["height"] != nil {
			digests[p.Outcome.DatesHash] = true
			n++
		}
	}
	if n != 9 || len(digests) != 1 {
		t.Fatalf("mesh sweep: %d points, %d distinct digests (want 9 points, 1 digest)", n, len(digests))
	}
}

// TestGoldenMeshProfileGuided pins the profile-guided loop on the mesh
// spec: -profile-guided output is byte-identical at 1 and 4 workers,
// every point keeps the golden's dated-log digest (placement never
// changes dates), every profiled point's kept placement dominates the
// hint placement on crossings and cut weight, and at least one point
// was rewritten to the profiled partitioner.
func TestGoldenMeshProfileGuided(t *testing.T) {
	type point struct {
		Params  map[string]any `json:"params"`
		Outcome struct {
			DatesHash string            `json:"dates_hash"`
			Counters  map[string]uint64 `json:"counters"`
		} `json:"outcome"`
	}
	decode := func(js []byte) []point {
		var doc struct {
			Points []point `json:"points"`
		}
		if err := json.Unmarshal(js, &doc); err != nil {
			t.Fatal(err)
		}
		return doc.Points
	}
	golden, err := os.ReadFile("testdata/mesh.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var outs []string
	for _, workers := range []int{1, 4} {
		var out, errBuf bytes.Buffer
		code := run([]string{
			"-spec", "testdata/mesh.json",
			"-profile-guided",
			"-workers", strconv.Itoa(workers),
		}, &out, &errBuf)
		if code != 0 {
			t.Fatalf("workers=%d: exit %d, stderr: %s", workers, code, errBuf.String())
		}
		outs = append(outs, out.String())
	}
	if outs[0] != outs[1] {
		t.Fatal("profile-guided output differs between 1 and 4 workers")
	}
	guided, ref := decode([]byte(outs[0])), decode(golden)
	if len(guided) != len(ref) {
		t.Fatalf("%d points, golden has %d", len(guided), len(ref))
	}
	profiled := 0
	for i, p := range guided {
		if p.Outcome.DatesHash != ref[i].Outcome.DatesHash {
			t.Errorf("point %d %v: dates_hash %s, golden %s", i, p.Params, p.Outcome.DatesHash, ref[i].Outcome.DatesHash)
		}
		if p.Params["partitioner"] != "profiled" {
			continue
		}
		profiled++
		c := p.Outcome.Counters
		if c["crossings_after"] > c["crossings_before"] || c["cut_weight_after"] > c["cut_weight_before"] {
			t.Errorf("point %d %v: kept placement does not dominate: %v", i, p.Params, c)
		}
	}
	if profiled == 0 {
		t.Fatal("no point was rewritten to the profiled partitioner")
	}
}
