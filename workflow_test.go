package repro

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
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

// testOnlyPackages are the internal packages allowed outside the reachable
// set, each with the reason. The list is exact: an entry that becomes
// reachable, or stops existing, fails the test too.
var testOnlyPackages = map[string]string{
	"repro/internal/chaos":     "imported only by _test.go files: the fault-injection harness whose own tests are the chaos soak",
	"repro/internal/leakcheck": "imported only by _test.go files: the goroutine-leak assertion of the robustness tests",
}

// goList runs `go list` in dir and returns the printed import paths.
func goList(t *testing.T, dir string, args ...string) []string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		var stderr []byte
		if ee := (*exec.ExitError)(nil); errors.As(err, &ee) {
			stderr = ee.Stderr
		}
		t.Fatalf("go list %s (in %s): %v\n%s", strings.Join(args, " "), dir, err, stderr)
	}
	return strings.Fields(string(out))
}

// TestInternalPackagesReachable fails on any internal package that no
// shipped surface imports: code kept only for its own tests. A package is
// reachable when a non-test import chain leads to it from a command (which
// also covers every registered scenario model, through
// internal/campaign/models.go), from the bench/ module, or from an example
// that has a test. Deleting a package, or giving it a tested example,
// is how to pass.
func TestInternalPackagesReachable(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go not on PATH")
	}
	roots := []string{"./cmd/..."}
	tests, err := filepath.Glob("examples/*/*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range tests {
		roots = append(roots, "./"+filepath.ToSlash(filepath.Dir(f)))
	}
	reached := map[string]bool{}
	for _, p := range goList(t, ".", append([]string{"-deps"}, roots...)...) {
		reached[p] = true
	}
	for _, p := range goList(t, "bench", "-deps", ".") {
		reached[p] = true
	}

	all := goList(t, ".", "./internal/...")
	exists := map[string]bool{}
	for _, p := range all {
		exists[p] = true
		_, allowed := testOnlyPackages[p]
		switch {
		case !reached[p] && !allowed:
			t.Errorf("%s is reachable from no command, bench/ workload or tested example: delete it or give it a tested caller", p)
		case reached[p] && allowed:
			t.Errorf("%s is allowlisted as test-only but is now reachable: drop it from testOnlyPackages", p)
		}
	}
	for p := range testOnlyPackages {
		if !exists[p] {
			t.Errorf("allowlisted package %s does not exist: drop it from testOnlyPackages", p)
		}
	}
}
