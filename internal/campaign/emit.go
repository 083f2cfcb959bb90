package campaign

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
)

// WriteJSON writes v to w as one indented JSON document, newline
// terminated — the shared emitter behind campaign reports and simd's
// JSON responses.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// CSV emits formatted rows under a fixed header, quoting via
// encoding/csv. Floats render with three decimals (the bench wall-time
// convention); everything else with %v. Errors stick: check Err (or the
// Flush return) once after the last row.
type CSV struct {
	w    *csv.Writer
	cols int
	err  error
}

// NewCSV writes the header and returns the row writer.
func NewCSV(w io.Writer, columns ...string) *CSV {
	c := &CSV{w: csv.NewWriter(w), cols: len(columns)}
	c.err = c.w.Write(columns)
	return c
}

// Row formats and writes one record; extra or missing fields are an error.
func (c *CSV) Row(values ...any) {
	if c.err != nil {
		return
	}
	if len(values) != c.cols {
		c.err = fmt.Errorf("campaign: CSV row has %d fields, header has %d", len(values), c.cols)
		return
	}
	rec := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			rec[i] = fmt.Sprintf("%.3f", x)
		case float32:
			rec[i] = fmt.Sprintf("%.3f", x)
		default:
			rec[i] = fmt.Sprint(v)
		}
	}
	c.err = c.w.Write(rec)
}

// Err returns the first write or shape error.
func (c *CSV) Err() error { return c.err }

// Flush drains the writer and returns the first error.
func (c *CSV) Flush() error {
	c.w.Flush()
	if c.err != nil {
		return c.err
	}
	return c.w.Error()
}

// JSON writes the canonical results document: with includeTiming false
// (the default everywhere determinism matters — golden files, the
// 1-vs-N-worker equality check) the nondeterministic wall-clock fields
// are stripped, and the bytes depend only on the spec.
func (r *Results) JSON(w io.Writer, includeTiming bool) error {
	doc := *r
	if !includeTiming {
		doc.Timing = nil
		doc.Points = make([]PointResult, len(r.Points))
		copy(doc.Points, r.Points)
		for i := range doc.Points {
			canonicalizePoint(&doc.Points[i])
		}
	}
	return WriteJSON(w, &doc)
}

// canonicalizePoint strips the timing-telemetry fields from a point
// report: wall time, attempt counts and the cache provenance all depend
// on scheduling or on what ran before, not on the spec. Degraded and
// Stall stay — they are outcome provenance, and healthy runs never set
// them. Applied by every canonical emitter (JSON, CSV, streaming) so the
// deterministic document stays byte-identical across worker counts AND
// across restarts.
func canonicalizePoint(p *PointResult) {
	p.WallMS = 0
	p.ProfileWallMS = 0
	p.Attempts = 0
	p.Cached = false
}

// CSVColumns is the header of the per-point CSV emitted by WriteCSV.
var CSVColumns = []string{"index", "model", "hash", "sim_end_ns", "ctx_switches",
	"checksums", "dates_hash", "dedup", "cached", "checked", "check_diff", "degraded", "stalled",
	"attempts", "error", "wall_ms", "profile_wall_ms",
	"crossings_before", "crossings_after", "cut_weight_before", "cut_weight_after", "params"}

// csvPointRow writes one point as a CSV record — shared by the buffered
// WriteCSV and the streaming results path so the column order cannot
// drift between them.
func csvPointRow(c *CSV, p *PointResult, includeTiming bool) error {
	var simEnd int64
	var ctx uint64
	sums, dates := "", ""
	if p.Outcome != nil {
		simEnd, ctx, dates = p.Outcome.SimEndNS, p.Outcome.CtxSwitches, p.Outcome.DatesHash
		for j, s := range p.Outcome.Checksums {
			if j > 0 {
				sums += " "
			}
			sums += fmt.Sprintf("%016x", s)
		}
	}
	wall := p.WallMS
	profWall := p.ProfileWallMS
	attempts := p.Attempts
	cached := p.Cached
	if !includeTiming {
		wall, profWall, attempts, cached = 0, 0, 0, false
	}
	// Placement-cost counters exist only on profile-guided points; zero
	// everywhere else (the counters themselves are deterministic).
	var cb, ca, wb, wa uint64
	if p.Outcome != nil {
		cb = p.Outcome.Counters["crossings_before"]
		ca = p.Outcome.Counters["crossings_after"]
		wb = p.Outcome.Counters["cut_weight_before"]
		wa = p.Outcome.Counters["cut_weight_after"]
	}
	params, err := json.Marshal(p.Params)
	if err != nil {
		return err
	}
	c.Row(p.Index, p.Model, p.Hash, simEnd, ctx, sums, dates,
		p.Dedup, cached, p.Checked, p.CheckDiff, p.Degraded, p.Stall != nil,
		attempts, p.Err, wall, profWall, cb, ca, wb, wa, string(params))
	return nil
}

// WriteCSV emits one row per point. As with JSON, wall times are zeroed
// unless includeTiming is set.
func (r *Results) WriteCSV(w io.Writer, includeTiming bool) error {
	c := NewCSV(w, CSVColumns...)
	for i := range r.Points {
		if err := csvPointRow(c, &r.Points[i], includeTiming); err != nil {
			return err
		}
	}
	return c.Flush()
}

// StreamPointJSON writes one point as a single compact JSON line — the
// newline-delimited streaming flavour of the results document. The
// object's field order is the PointResult struct order, identical to
// the buffered document's; without includeTiming the same canonical
// zeroing applies.
func StreamPointJSON(w io.Writer, p *PointResult, includeTiming bool) error {
	pt := *p
	if !includeTiming {
		canonicalizePoint(&pt)
	}
	js, err := json.Marshal(&pt)
	if err != nil {
		return err
	}
	js = append(js, '\n')
	_, err = w.Write(js)
	return err
}

// StreamPointCSV writes one point row through the shared column writer
// and flushes it, so the row reaches the client before the next point
// completes. The columns are exactly WriteCSV's.
func StreamPointCSV(c *CSV, p *PointResult, includeTiming bool) error {
	if err := csvPointRow(c, p, includeTiming); err != nil {
		return err
	}
	return c.Flush()
}

// StreamAggregateJSON writes the stream's trailing line: the aggregate
// of the settled results document.
func StreamAggregateJSON(w io.Writer, r *Results) error {
	js, err := json.Marshal(map[string]*Aggregate{"aggregate": &r.Aggregate})
	if err != nil {
		return err
	}
	js = append(js, '\n')
	_, err = w.Write(js)
	return err
}
