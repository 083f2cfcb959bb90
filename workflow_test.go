package repro

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// plainScalarProblem reports why a workflow line's unquoted name:/run:
// value would not parse as the plain YAML scalar it was meant to be, or
// "" when it would (or the line is not such a key). ": " inside a plain
// scalar starts a nested mapping, which YAML rejects ("mapping values are
// not allowed here"); " #" starts a comment and silently truncates it.
// Quoted values and block scalars (| and >) are left alone.
func plainScalarProblem(line string) string {
	s := strings.TrimPrefix(strings.TrimSpace(line), "- ")
	var val string
	switch {
	case strings.HasPrefix(s, "name:"):
		val = s[len("name:"):]
	case strings.HasPrefix(s, "run:"):
		val = s[len("run:"):]
	default:
		return ""
	}
	val = strings.TrimSpace(val)
	if val == "" || strings.ContainsAny(val[:1], `"'|>`) {
		return ""
	}
	switch {
	case strings.Contains(val, ": "):
		return `unquoted value contains ": "`
	case strings.Contains(val, " #"):
		return `unquoted value contains " #"`
	}
	return ""
}

// TestWorkflowScalars keeps .github/workflows/ci.yml parseable: one
// unquoted step name containing ": " once made the whole file invalid
// YAML, so no CI job ran and nothing said so.
func TestWorkflowScalars(t *testing.T) {
	for _, tc := range []struct {
		line string
		bad  bool
	}{
		{`      - name: Benchmark harness (bench/ is its own module: build, vet)`, true},
		{`      - name: "Benchmark harness (bench/ is its own module: build, vet)"`, false},
		{`        run: go test ./... # all`, true},
		{`        run: |`, false},
		{`      - name: Build`, false},
	} {
		if got := plainScalarProblem(tc.line) != ""; got != tc.bad {
			t.Errorf("plainScalarProblem(%q) flagged=%v, want %v", tc.line, got, tc.bad)
		}
	}

	data, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(data), "\n") {
		if why := plainScalarProblem(line); why != "" {
			t.Errorf("ci.yml:%d: %s (quote it): %s", i+1, why, strings.TrimSpace(line))
		}
	}
}

// TestGofmtClean fails when any Go file of the module, bench/ included, is
// not gofmt-formatted. Hidden top-level directories (.git, the benchmark's
// .bench_build scratch) are not part of the source tree and are skipped.
func TestGofmtClean(t *testing.T) {
	gofmt, err := exec.LookPath("gofmt")
	if err != nil {
		t.Skip("gofmt not on PATH")
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	args := []string{"-l"}
	for _, e := range entries {
		if name := e.Name(); !strings.HasPrefix(name, ".") && (e.IsDir() || strings.HasSuffix(name, ".go")) {
			args = append(args, name)
		}
	}
	out, err := exec.Command(gofmt, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("gofmt -l: %v\n%s", err, out)
	}
	if files := strings.TrimSpace(string(out)); files != "" {
		t.Errorf("files not gofmt-formatted (run gofmt -w):\n%s", files)
	}
}
