package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/par"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// The reflective reference: method-less mirrors of Outcome and
// PointResult, encoded by encoding/json field by field. refOutcome is a
// defined type over Outcome, so it has Outcome's fields and tags but not
// its MarshalJSON; refPoint spells PointResult's fields out with the two
// canonical-bytes fields swapped for the decoded values they encode, and
// TestPointJSONMatchesReflective checks that it still mirrors
// PointResult.
type refOutcome scenario.Outcome

type refPoint struct {
	Index         int                  `json:"index"`
	Model         string               `json:"model"`
	Hash          string               `json:"hash"`
	Params        map[string]any       `json:"params"`
	Outcome       *refOutcome          `json:"outcome,omitempty"`
	Err           string               `json:"error,omitempty"`
	Dedup         bool                 `json:"dedup,omitempty"`
	Cached        bool                 `json:"cached,omitempty"`
	Checked       bool                 `json:"checked,omitempty"`
	CheckDiff     string               `json:"check_diff,omitempty"`
	Degraded      bool                 `json:"degraded,omitempty"`
	Stall         *par.StallDiagnostic `json:"stall,omitempty"`
	Attempts      int                  `json:"attempts,omitempty"`
	WallMS        float64              `json:"wall_ms,omitempty"`
	ProfileWallMS float64              `json:"profile_wall_ms,omitempty"`
}

func reflective(t *testing.T, r refPoint) []byte {
	t.Helper()
	js, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	return js
}

// point is the PointResult r mirrors: its params and outcome in their
// canonical bytes.
func (r refPoint) point() PointResult {
	p := PointResult{Index: r.Index, Model: r.Model, Hash: r.Hash, Err: r.Err, Dedup: r.Dedup,
		Cached: r.Cached, Checked: r.Checked, CheckDiff: r.CheckDiff, Degraded: r.Degraded,
		Stall: r.Stall, Attempts: r.Attempts, WallMS: r.WallMS, ProfileWallMS: r.ProfileWallMS}
	if r.Params != nil {
		p.Params, _ = scenario.Params(r.Params).AppendJSON(nil)
	}
	if r.Outcome != nil {
		p.Outcome = (*scenario.Outcome)(r.Outcome).AppendJSON(nil)
	}
	return p
}

// canonicalizePoint strips the timing telemetry the canonical encoding
// leaves out: wall times, attempt counts and the cache provenance.
func canonicalizePoint(p *PointResult) {
	p.WallMS, p.ProfileWallMS, p.Attempts, p.Cached = 0, 0, 0, false
}

// encodeRows returns the rows of encodeRefs.
func encodeRows() []PointResult {
	var rows []PointResult
	for _, r := range encodeRefs() {
		rows = append(rows, r.point())
	}
	return rows
}

// encodeRefs covers every omitempty field set and unset, a stall
// diagnostic, strings that need escaping, floats on both sides of
// encoding/json's exponent cutoffs and maps past the encoder's stack
// array.
func encodeRefs() []refPoint {
	many := map[string]uint64{}
	bigParams := map[string]any{}
	for i := 0; i < 20; i++ {
		many[fmt.Sprintf("c%02d", 19-i)] = uint64(i) << 40
		bigParams[fmt.Sprintf("k%d", i)] = float64(i) / 7
	}
	return []refPoint{
		{Model: "pipeline", Hash: "0123456789abcdef"},
		{Index: 1, Model: "kpn", Hash: "h", Params: map[string]any{}},
		{Index: 2, Model: "pipeline", Hash: "h2",
			Params: map[string]any{"depth": float64(16), "mode": "TDfull", "blocks": 4, "q": float32(0.1)},
			Outcome: &refOutcome{SimEndNS: 123456, CtxSwitches: 42,
				Checksums: []uint64{0, 1, 1<<64 - 1}, DatesHash: "12:00ff00ff00ff00ff",
				Counters: map[string]uint64{"shards": 2, "bus_accesses": 9, "Zeta": 1, "alpha": 0}}},
		{Index: 3, Model: "soc", Hash: "h3", Params: bigParams,
			Outcome: &refOutcome{SimEndNS: -1, Counters: many}},
		{Index: 4, Model: "m<&>", Hash: "h\"4\"", Params: map[string]any{"<k>": "a&b", "ctl\x01": "\t\n"},
			Outcome: &refOutcome{DatesHash: "caf\u00e9\u2028", Checksums: []uint64{}}},
		{Index: 5, Model: "bad", Hash: "h5", Params: map[string]any{"x": 1},
			Err: "scenario: parameter \"x\": want <string> & got\nint\x00 \xff"},
		{Index: 6, Model: "pipeline", Hash: "h6", Params: map[string]any{"depth": 1},
			Outcome: &refOutcome{SimEndNS: 7}, Dedup: true, Cached: true, Checked: true,
			CheckDiff: "block 3: <dated 10ns> vs \"12ns\" & more\u2029", Degraded: true,
			Attempts: 3, WallMS: 1.5, ProfileWallMS: 1e-7},
		{Index: 7, Model: "wedge", Hash: "h7", Params: map[string]any{"shards": 2},
			Err: "stalled", Stall: &par.StallDiagnostic{Advances: 12, GlobalNow: 40 * sim.NS,
				Shards: []par.ShardDiag{
					{Name: "s0", Now: 40 * sim.NS, NextEvent: 50 * sim.NS, HasWork: true, Horizon: sim.TimeMax, Blocked: []string{"w<0>"}, Beat: 9},
					{Name: "s1", Now: 41 * sim.NS},
				},
				Bridges: []par.BridgeDiag{{Name: "b", Writer: "s0", Reader: "s1", Frontier: 45 * sim.NS, WriteFrontier: sim.TimeMax}}},
			Attempts: 2, WallMS: 1e21, ProfileWallMS: 123456789.125},
		{Index: 8, Model: "pipeline", Hash: "h8", Params: map[string]any{"f": 9.999999999999999e-07, "g": float32(1e21)},
			WallMS: 0.000001, ProfileWallMS: -2.5e-300},
	}
}

// TestPointJSONMatchesReflective compares every row's encodings with
// encoding/json's reflective encoding of the method-less mirrors: the
// full row (MarshalJSON), the canonical streamed line and the outcome
// alone. The methods are called directly: through json.Marshal their
// output would be re-compacted, which HTML-escapes it again.
func TestPointJSONMatchesReflective(t *testing.T) {
	pt, rt := reflect.TypeOf(PointResult{}), reflect.TypeOf(refPoint{})
	if pt.NumField() != rt.NumField() {
		t.Fatalf("refPoint has %d fields, PointResult %d: mirror the new field", rt.NumField(), pt.NumField())
	}
	for i := 0; i < pt.NumField(); i++ {
		if pf, rf := pt.Field(i), rt.Field(i); pf.Name != rf.Name || pf.Tag != rf.Tag {
			t.Fatalf("field %d: PointResult has %s `%s`, refPoint %s `%s`", i, pf.Name, pf.Tag, rf.Name, rf.Tag)
		}
	}

	var line []byte
	for _, r := range encodeRefs() {
		p := r.point()
		got, err := p.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if want := reflective(t, r); !bytes.Equal(got, want) {
			t.Errorf("row %d:\nencoder    %s\nreflective %s", p.Index, got, want)
		}

		var w bytes.Buffer
		if line, err = StreamPointJSON(&w, line, &p, false); err != nil {
			t.Fatal(err)
		}
		canon := r
		canon.WallMS, canon.ProfileWallMS, canon.Attempts, canon.Cached = 0, 0, 0, false
		if want := append(reflective(t, canon), '\n'); !bytes.Equal(w.Bytes(), want) {
			t.Errorf("row %d streamed:\nencoder    %s\nreflective %s", p.Index, w.Bytes(), want)
		}

		if r.Outcome == nil {
			continue
		}
		got, _ = (*scenario.Outcome)(r.Outcome).MarshalJSON()
		want, _ := json.Marshal(r.Outcome)
		if !bytes.Equal(got, want) {
			t.Errorf("row %d outcome:\nencoder    %s\nreflective %s", p.Index, got, want)
		}
	}
}
