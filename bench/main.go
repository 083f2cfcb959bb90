// Command bench is the repository's single benchmark: seven workloads
// over the paper's models and the simd service, measured end to end
// (untraced) and layer by layer (traced), with every output checked
// against a reference build and pinned goldens. BENCHMARK.json at the
// repository root records its contract; README.md in this directory
// explains every workload and metric.
//
//	bash bench/run.sh --workload fig5_d1 --seed 1 --seconds 8 --trace 0
//	go run -C bench . -workload sweep_cold -seed 1 -seconds 8 -trace 1
//	go run -C bench . -compare A.jsonl B.jsonl
//
// The last line of standard output is one JSON object with exactly the
// keys correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"syscall"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "", "workload to run (see README.md)")
		seed         = fs.Int64("seed", 1, "benchmark seed: payload seeds and sweep seeds derive from it")
		seconds      = fs.Float64("seconds", 8, "how long the timed ops run (each workload also has a minimum op count)")
		trace        = fs.Int("trace", 0, "0 = end-to-end metrics, instrumentation off; 1 = per-layer metrics, ladder and spans")
		buildDir     = fs.String("build-dir", "", "scratch directory for the simd binary, journals and the trace (default: a temporary one)")
		out          = fs.String("out", "", "append the full result document (stamp included) to this JSON-lines file")
		traceOut     = fs.String("trace-out", "", "where a traced run writes its Chrome trace (default: the scratch directory)")
		compare      = fs.Bool("compare", false, "compare two result files: bench -compare A.jsonl B.jsonl")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *workloadName == "" || fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: want -workload NAME [-seed N] [-seconds S] [-trace 0|1]; workloads:")
		for _, w := range workloads() {
			fmt.Fprintln(stderr, "  "+w.name)
		}
		return 2
	}

	// An interrupt cancels the run through its normal return path, so the
	// simd child is stopped and its journal removed on that exit too.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	doc, err := execute(ctx, runConfig{workload: *workloadName, seed: *seed, seconds: *seconds,
		traced: *trace == 1, buildDir: *buildDir, traceOut: *traceOut}, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if doc.Stamp.Noisy {
		fmt.Fprintf(stdout, "noisy: load average %.2f on %d CPUs before the first op\n", doc.Stamp.LoadAvg1, doc.Stamp.NProc)
	}
	stampJSON, _ := json.Marshal(doc.Stamp) // a struct of scalars always encodes
	fmt.Fprintf(stdout, "stamp %s\n", stampJSON)
	names := make([]string, 0, len(doc.Metrics))
	for n := range doc.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-32s %16.6g %s\n", n, doc.Metrics[n].Value, doc.Metrics[n].Unit)
	}
	if *out != "" {
		if err := appendDocument(*out, doc); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	last, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{doc.Correct, doc.Attempted, doc.Failed, doc.Metrics})
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err) // a NaN or Inf metric: a harness bug worth failing on
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", last)
	return 0
}

// appendDocument adds doc as one line to the JSON-lines file at path.
func appendDocument(path string, doc *document) error {
	line, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
