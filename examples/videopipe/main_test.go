package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

var (
	// wall matches a "wall <duration>" field.
	wall = regexp.MustCompile(`wall +[0-9]\S*`)
	// speedup matches the wall-derived speedup ratio.
	speedup = regexp.MustCompile(`speedup: \S+`)
)

// TestGolden pins the demo's stdout with only the two wall times and the
// speedup derived from them masked: the verify verdict, switch counts and
// last-frame dates stay exact. After an intended change, refresh with:
// go run ./examples/videopipe | sed -E 's/wall +[0-9][^ ]*/wall <wall>/; s/speedup: [^ ]+/speedup: <speedup>/' > examples/videopipe/testdata/stdout.golden
func TestGolden(t *testing.T) {
	var buf bytes.Buffer
	run(&buf)
	got := wall.ReplaceAllString(buf.String(), "wall <wall>")
	got = speedup.ReplaceAllString(got, "speedup: <speedup>")
	want, err := os.ReadFile("testdata/stdout.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("masked stdout differs from testdata/stdout.golden\n--- got\n%s--- want\n%s", got, want)
	}
}
