package campaign

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/scenario"
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
	doc := resultsDoc{Name: r.Name, Points: pointRows{r.rows, !includeTiming}, Aggregate: &r.Aggregate}
	if includeTiming {
		doc.Timing = r.Timing
	}
	return WriteJSON(w, &doc)
}

// resultsDoc is the results document's layout.
type resultsDoc struct {
	Name      string     `json:"name,omitempty"`
	Points    pointRows  `json:"points"`
	Aggregate *Aggregate `json:"aggregate"`
	Timing    *Timing    `json:"timing,omitempty"`
}

// pointRows renders a document's rows as one JSON array through the
// row encoder; canonical leaves the timing telemetry out.
type pointRows struct {
	rows      []row
	canonical bool
}

func (p pointRows) MarshalJSON() ([]byte, error) {
	b := []byte{'['}
	for i := range p.rows {
		if i > 0 {
			b = append(b, ',')
		}
		v := p.rows[i].view(i)
		var err error
		if b, err = v.appendJSON(b, p.canonical); err != nil {
			return nil, err
		}
	}
	return append(b, ']'), nil
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
	out, err := p.DecodeOutcome()
	if err != nil {
		return err
	}
	var simEnd int64
	var ctx uint64
	sums, dates := "", ""
	if out != nil {
		simEnd, ctx, dates = out.SimEndNS, out.CtxSwitches, out.DatesHash
		for j, s := range out.Checksums {
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
	if out != nil {
		cb = out.Counters["crossings_before"]
		ca = out.Counters["crossings_after"]
		wb = out.Counters["cut_weight_before"]
		wa = out.Counters["cut_weight_after"]
	}
	c.Row(p.Index, p.Model, p.Hash, simEnd, ctx, sums, dates,
		p.Dedup, cached, p.Checked, p.CheckDiff, p.Degraded, p.Stall != nil,
		attempts, p.Err, wall, profWall, cb, ca, wb, wa, string(p.Params))
	return nil
}

// WriteCSV emits one row per point. As with JSON, wall times are zeroed
// unless includeTiming is set.
func (r *Results) WriteCSV(w io.Writer, includeTiming bool) error {
	c := NewCSV(w, CSVColumns...)
	for i := range r.rows {
		p := r.rows[i].view(i)
		if err := csvPointRow(c, &p, includeTiming); err != nil {
			return err
		}
	}
	return c.Flush()
}

// StreamPointJSON writes one point as a single compact JSON line — the
// newline-delimited streaming flavour of the results document. The
// object's field order is the PointResult struct order, identical to
// the buffered document's; without includeTiming the same canonical
// zeroing applies. The line is rendered into buf (from its start) and
// buf is returned, so a stream reuses one buffer for all its rows.
func StreamPointJSON(w io.Writer, buf []byte, p *PointResult, includeTiming bool) ([]byte, error) {
	buf, err := p.appendJSON(buf[:0], !includeTiming)
	if err != nil {
		return buf, err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return buf, err
}

// MarshalJSON renders the point through the same encoder as the stream,
// timing fields included: the buffered results document encodes its
// rows this way.
func (p PointResult) MarshalJSON() ([]byte, error) { return p.appendJSON(nil, false) }

// appendJSON appends the point's JSON object: the struct's fields in
// order, as their tags say, exactly as encoding/json would write them.
// Params and Outcome are copied as they are. With canonical set the
// timing telemetry (wall time, attempt counts, cache provenance — all
// dependent on scheduling or on what ran before, not on the spec) is
// left out, so the deterministic document stays byte-identical across
// worker counts and across restarts. Degraded and Stall stay: they are
// outcome provenance, and healthy runs never set them.
func (p *PointResult) appendJSON(b []byte, canonical bool) ([]byte, error) {
	b = append(b, `{"index":`...)
	b = strconv.AppendInt(b, int64(p.Index), 10)
	b = append(b, `,"model":`...)
	b = scenario.AppendJSONString(b, p.Model)
	b = append(b, `,"hash":`...)
	b = scenario.AppendJSONString(b, p.Hash)
	b = append(b, `,"params":`...)
	if p.Params == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, p.Params...)
	}
	if p.Outcome != nil {
		b = append(b, `,"outcome":`...)
		b = append(b, p.Outcome...)
	}
	if p.Err != "" {
		b = append(b, `,"error":`...)
		b = scenario.AppendJSONString(b, p.Err)
	}
	if p.Dedup {
		b = append(b, `,"dedup":true`...)
	}
	if p.Cached && !canonical {
		b = append(b, `,"cached":true`...)
	}
	if p.Checked {
		b = append(b, `,"checked":true`...)
	}
	if p.CheckDiff != "" {
		b = append(b, `,"check_diff":`...)
		b = scenario.AppendJSONString(b, p.CheckDiff)
	}
	if p.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	if p.Stall != nil {
		// Rare: only stalled points carry a diagnostic.
		js, err := json.Marshal(p.Stall)
		if err != nil {
			return b, err
		}
		b = append(b, `,"stall":`...)
		b = append(b, js...)
	}
	if canonical {
		return append(b, '}'), nil
	}
	var err error
	if p.Attempts != 0 {
		b = append(b, `,"attempts":`...)
		b = strconv.AppendInt(b, int64(p.Attempts), 10)
	}
	if p.WallMS != 0 {
		b = append(b, `,"wall_ms":`...)
		if b, err = scenario.AppendJSONFloat(b, p.WallMS, 64); err != nil {
			return b, err
		}
	}
	if p.ProfileWallMS != 0 {
		b = append(b, `,"profile_wall_ms":`...)
		if b, err = scenario.AppendJSONFloat(b, p.ProfileWallMS, 64); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

// StreamPointCSV writes one point row through the shared column writer
// and flushes the column writer into its destination, so the row is
// there before the next point completes. The columns are exactly
// WriteCSV's.
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
