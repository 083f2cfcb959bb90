package main

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/metrics"
)

// Reading counters the program already exports. A scrape is the text a
// /metrics endpoint (or Registry.WritePrometheus) returns; the counts a
// traced op is charged with are the difference between the scrape taken
// before it and the one taken after.

// scrape maps each sample line's series — the name with its label block,
// exactly as exposed — to its value.
type scrape map[string]float64

// parseScrape validates text as a Prometheus exposition (the shared
// metrics.ParseExposition grammar check) and returns its samples.
func parseScrape(text []byte) (scrape, error) {
	if _, err := metrics.ParseExposition(bytes.NewReader(text)); err != nil {
		return nil, fmt.Errorf("metrics scrape: %w", err)
	}
	out := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value is the text after the last space: label values may
		// contain spaces, sample values may not (no timestamps here —
		// the repository's encoder never writes them).
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics scrape: bad sample %q", line)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// family sums every series of a metric family: the bare name plus any
// labelled variants (store_records_total{type="..."}).
func (s scrape) family(name string) float64 {
	var sum float64
	for series, v := range s {
		if series == name || strings.HasPrefix(series, name+"{") {
			sum += v
		}
	}
	return sum
}

// delta returns after − before for one family. A family missing from
// both scrapes reads as 0.
func delta(before, after scrape, name string) float64 {
	return after.family(name) - before.family(name)
}

// registryScrape renders an in-process registry through the same text
// path a /metrics endpoint uses, so in-process and served counters are
// read by one reader.
func registryScrape(r *metrics.Registry) (scrape, error) {
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return parseScrape(buf.Bytes())
}

// histogramMedian estimates the median of a histogram family from its
// cumulative _bucket series in a scrape (the difference between two
// scrapes when before is non-nil). 0 when the histogram is empty.
func histogramMedian(before, after scrape, name string) float64 {
	type bucket struct {
		le    float64
		count float64
	}
	var bs []bucket
	prefix := name + `_bucket{le="`
	for series, v := range after {
		rest, ok := strings.CutPrefix(series, prefix)
		if !ok {
			continue
		}
		leText := strings.TrimSuffix(rest, `"}`)
		if leText == "+Inf" {
			continue // carried by _count
		}
		le, err := strconv.ParseFloat(leText, 64)
		if err != nil {
			continue // not a bucket bound this reader understands
		}
		bs = append(bs, bucket{le, v - before[series]})
	}
	total := after[name+"_count"] - before[name+"_count"]
	if total <= 0 || len(bs) == 0 {
		return 0
	}
	// Cumulative counts → the first bound holding half the observations.
	best := 0.0
	found := false
	for _, b := range bs {
		if b.count >= total/2 && (!found || b.le < best) {
			best, found = b.le, true
		}
	}
	if !found {
		for _, b := range bs {
			best = max(best, b.le) // the median sits in the +Inf bucket
		}
	}
	return best
}
