// Command metricscheck validates a Prometheus text exposition and diffs
// its metric family names against a checked-in catalog:
//
//	curl -s localhost:8080/metrics > metrics.txt
//	metricscheck -catalog metrics.catalog -in metrics.txt
//
// exit 0 means the exposition parsed (TYPE/HELP lines, sample grammar,
// histogram suffixes) and the family set matches the catalog exactly;
// any malformed line, missing family or unlisted family is reported and
// exits 1. That turns "someone renamed a metric" from a silent dashboard
// breakage into a failing check. cmd/simd's live-service test runs the
// same comparison against a real simd process.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/metrics"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("metricscheck", flag.ExitOnError)
	catalog := fs.String("catalog", "metrics.catalog", "checked-in metric family catalog (one name per line, # comments)")
	in := fs.String("in", "-", "exposition to validate (- = stdin)")
	fs.Parse(args)

	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metricscheck: %v\n", err)
			return 2
		}
		defer f.Close()
		r = f
	}
	got, err := metrics.ParseExposition(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "metricscheck: exposition invalid: %v\n", err)
		return 1
	}
	want, err := metrics.ReadCatalog(*catalog)
	if err != nil {
		fmt.Fprintf(os.Stderr, "metricscheck: %v\n", err)
		return 2
	}

	missing, extra := metrics.DiffFamilies(want, got)
	for _, name := range missing {
		fmt.Fprintf(os.Stderr, "metricscheck: MISSING from exposition: %s\n", name)
	}
	for _, name := range extra {
		fmt.Fprintf(os.Stderr, "metricscheck: NOT IN CATALOG: %s (update metrics.catalog)\n", name)
	}
	if len(missing)+len(extra) > 0 {
		return 1
	}
	fmt.Printf("metricscheck: exposition valid, %d families match %s\n", len(got), *catalog)
	return 0
}
