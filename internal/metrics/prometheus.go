package metrics

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the Prometheus text exposition content type served on
// a /metrics endpoint.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// escapeHelp escapes a HELP string per the exposition format: backslash
// and newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value: backslash, double quote, newline.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// fmtFloat renders a sample value the way Prometheus expects.
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeLabels renders {a="x",b="y"}, with extra (used for the
// histogram le label) appended last. Empty label sets render nothing.
func writeLabels(b *bufio.Writer, labels []Label, extra ...Label) {
	if len(labels)+len(extra) == 0 {
		return
	}
	b.WriteByte('{')
	first := true
	for _, l := range append(append([]Label(nil), labels...), extra...) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

// WritePrometheus encodes the registry in the text exposition format
// (version 0.0.4): families sorted by name, each with its # HELP and
// # TYPE lines, histograms expanded into cumulative _bucket series plus
// _sum and _count. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	b := bufio.NewWriter(w)
	for _, f := range r.Snapshot() {
		if f.Help != "" {
			fmt.Fprintf(b, "# HELP %s %s\n", f.Name, escapeHelp(f.Help))
		}
		fmt.Fprintf(b, "# TYPE %s %s\n", f.Name, f.Kind)
		for _, s := range f.Series {
			switch f.Kind {
			case KindCounter, KindGauge:
				b.WriteString(f.Name)
				writeLabels(b, s.Labels)
				fmt.Fprintf(b, " %s\n", fmtFloat(s.Value))
			case KindHistogram:
				cum := uint64(0)
				for i, bound := range s.Bounds {
					cum += s.Buckets[i]
					b.WriteString(f.Name + "_bucket")
					writeLabels(b, s.Labels, Label{"le", fmtFloat(bound)})
					fmt.Fprintf(b, " %d\n", cum)
				}
				b.WriteString(f.Name + "_bucket")
				writeLabels(b, s.Labels, Label{"le", "+Inf"})
				fmt.Fprintf(b, " %d\n", s.Count)
				b.WriteString(f.Name + "_sum")
				writeLabels(b, s.Labels)
				fmt.Fprintf(b, " %s\n", fmtFloat(s.Sum))
				b.WriteString(f.Name + "_count")
				writeLabels(b, s.Labels)
				fmt.Fprintf(b, " %d\n", s.Count)
			}
		}
	}
	return b.Flush()
}

// ParseExposition validates r as Prometheus text exposition format and
// returns the sorted set of metric family names it declares (the names
// on # TYPE lines). It checks the line grammar a scraper relies on —
// every sample belongs to a declared family, sample lines parse as
// name{labels} value, histogram sub-series map back to their family —
// without implementing the full protobuf-equivalent model. It is the
// shared validator behind cmd/metricscheck and the scrape tests, which
// compare its result with ReadCatalog through DiffFamilies.
func ParseExposition(r io.Reader) ([]string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	types := map[string]string{}
	var order []string
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				return nil, fmt.Errorf("line %d: malformed TYPE line %q", lineNo, line)
			}
			name, kind := parts[2], parts[3]
			if !validName(name) {
				return nil, fmt.Errorf("line %d: invalid metric name %q", lineNo, name)
			}
			switch kind {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return nil, fmt.Errorf("line %d: unknown metric type %q", lineNo, kind)
			}
			if _, dup := types[name]; dup {
				return nil, fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, name)
			}
			types[name] = kind
			order = append(order, name)
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // HELP or comment
		}
		name, rest, err := splitSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		if _, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err != nil {
			return nil, fmt.Errorf("line %d: bad sample value in %q", lineNo, line)
		}
		fam := name
		if t, ok := types[fam]; !ok || t == "histogram" || t == "summary" {
			// A histogram sample carries a _bucket/_sum/_count suffix.
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if base, ok2 := strings.CutSuffix(name, suf); ok2 {
					if t2, ok3 := types[base]; ok3 && (t2 == "histogram" || t2 == "summary") {
						fam = base
						break
					}
				}
			}
		}
		if _, ok := types[fam]; !ok {
			return nil, fmt.Errorf("line %d: sample %q has no # TYPE declaration", lineNo, name)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Strings(order)
	return order, nil
}

// ReadCatalog loads a checked-in family catalog (one name per line,
// blanks and # comments skipped) as a sorted list.
func ReadCatalog(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var names []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		names = append(names, line)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Strings(names)
	return names, nil
}

// DiffFamilies returns catalog names absent from the exposition and
// exposition names absent from the catalog; both inputs are sorted.
func DiffFamilies(want, got []string) (missing, extra []string) {
	w := map[string]bool{}
	for _, n := range want {
		w[n] = true
	}
	g := map[string]bool{}
	for _, n := range got {
		g[n] = true
		if !w[n] {
			extra = append(extra, n)
		}
	}
	for _, n := range want {
		if !g[n] {
			missing = append(missing, n)
		}
	}
	return missing, extra
}

// splitSample splits a sample line into its metric name and the value
// text after the (optionally labeled) name, validating the label block
// syntax.
func splitSample(line string) (name, rest string, err error) {
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return "", "", fmt.Errorf("malformed sample line %q", line)
	}
	name = line[:i]
	if !validName(name) {
		return "", "", fmt.Errorf("invalid metric name %q", name)
	}
	if line[i] == ' ' {
		return name, line[i+1:], nil
	}
	// Scan the {...} label block, honouring escaped quotes.
	inQuote, esc := false, false
	for j := i + 1; j < len(line); j++ {
		c := line[j]
		if inQuote {
			switch {
			case esc:
				esc = false
			case c == '\\':
				esc = true
			case c == '"':
				inQuote = false
			}
			continue
		}
		switch c {
		case '"':
			inQuote = true
		case '}':
			return name, line[j+1:], nil
		}
	}
	return "", "", fmt.Errorf("unterminated label block in %q", line)
}
