package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// -compare: the acceptance tool. Two result files (JSON lines written
// with -out, any number of runs per workload) are reduced per workload
// and end-to-end metric to medians and quartile spreads, and each pair
// gets a verdict against the metric's own bound. Exact metrics are
// compared run by run, seed against seed.

// readDocuments loads a JSON-lines result file.
func readDocuments(path string) ([]document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var docs []document
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var d document
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		docs = append(docs, d)
	}
	return docs, sc.Err()
}

// exactOn reports whether metric m must repeat exactly on a workload.
// Two rows' kernel counters are not a function of the seed alone: the
// sharded row's depend on goroutine interleaving (scenario.Outcome.
// CtxSwitches says why), and sweep_cold's are a median over ops that each
// ran fresh seeds, so they depend on how many ops the run fitted in. On
// those rows dates, words and campaign counts are exact, sim.* is not.
func exactOn(workload string, m metricDef) bool {
	if !m.exact {
		return false
	}
	varies := workload == "soc_shard2" || workload == "sweep_cold"
	return !(varies && strings.HasPrefix(m.name, "sim."))
}

// verdict classifies one end-to-end comparison. worseBy is the signed
// share by which B's median is worse than A's (negative = better).
func verdict(worseBy, spread, bound float64) string {
	switch {
	case spread > bound:
		return "unresolved" // the runs disagree with themselves by more than the bound
	case worseBy > bound:
		return "worse"
	}
	return "agree"
}

// worseBy returns the share of a by which b is worse, given the
// metric's direction.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / a
	if better == "higher" {
		d = -d
	}
	return d
}

func values(docs []document, workload string, traced bool, metric string) []float64 {
	var out []float64
	for _, d := range docs {
		if d.Workload == workload && d.Trace == traced {
			if m, ok := d.Metrics[metric]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// compareSets prints the comparison and returns the number of findings
// that must fail the check: worse metrics, changed exact metrics, risen
// failure shares.
func compareSets(a, b []document, w io.Writer) int {
	bad := 0
	fmt.Fprintf(w, "%-11s %-14s %12s %12s %8s %7s %8s %8s  %s\n",
		"workload", "metric", "A median", "B median", "worse%", "bound%", "iqrA%", "iqrB%", "verdict")
	for _, wl := range workloads() {
		for _, m := range catalogue {
			if m.kind != endToEnd {
				continue
			}
			va, vb := values(a, wl.name, false, m.name), values(b, wl.name, false, m.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			sa, sb := quartileSpread(va), quartileSpread(vb)
			by := worseBy(ma, mb, m.better)
			v := verdict(by, max(sa, sb), m.bound)
			if v == "worse" {
				bad++
			}
			fmt.Fprintf(w, "%-11s %-14s %12.4f %12.4f %+8.2f %7.1f %8.2f %8.2f  %s (n=%d/%d)\n",
				wl.name, m.name, ma, mb, 100*by, 100*m.bound, 100*sa, 100*sb, v, len(va), len(vb))
		}
	}

	// Exact metrics: the same workload, mode and seed must give the same
	// number in both sets.
	type key struct {
		workload string
		traced   bool
		seed     int64
	}
	byKey := map[key]document{}
	for _, d := range b {
		byKey[key{d.Workload, d.Trace, d.Stamp.Seed}] = d
	}
	pairs := 0
	for _, da := range a {
		db, ok := byKey[key{da.Workload, da.Trace, da.Stamp.Seed}]
		if !ok {
			continue
		}
		pairs++
		for _, m := range catalogue {
			if !exactOn(da.Workload, m) {
				continue
			}
			xa, okA := da.Metrics[m.name]
			xb, okB := db.Metrics[m.name]
			if okA && okB && xa.Value != xb.Value {
				bad++
				fmt.Fprintf(w, "changed: %s seed %d %s: %v -> %v\n", da.Workload, da.Stamp.Seed, m.name, xa.Value, xb.Value)
			}
		}
	}
	fmt.Fprintf(w, "exact metrics compared on %d seed-matched run pairs\n", pairs)

	share := func(docs []document, workload string) (float64, int) {
		att, fail := 0, 0
		for _, d := range docs {
			if d.Workload == workload {
				att += d.Attempted
				fail += d.Failed
			}
		}
		if att == 0 {
			return 0, 0
		}
		return float64(fail) / float64(att), att
	}
	for _, wl := range workloads() {
		fa, na := share(a, wl.name)
		fb, nb := share(b, wl.name)
		if na == 0 || nb == 0 {
			continue
		}
		if fb > fa {
			bad++
			fmt.Fprintf(w, "failed share rose on %s: %.4f -> %.4f\n", wl.name, fa, fb)
		}
	}
	return bad
}

func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readDocuments(pathA)
	if err == nil && len(a) == 0 {
		err = fmt.Errorf("%s holds no results", pathA)
	}
	var b []document
	if err == nil {
		b, err = readDocuments(pathB)
	}
	if err == nil && len(b) == 0 {
		err = fmt.Errorf("%s holds no results", pathB)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	if bad := compareSets(a, b, stdout); bad > 0 {
		fmt.Fprintf(stdout, "%d findings\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "no findings")
	return 0
}
