package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

var (
	// wall matches a "wall <duration>" field of the ablation lines.
	wall = regexp.MustCompile(`wall +[0-9]\S*`)
	// wallColumn matches a depth-sweep row; the wall column sits between
	// the mode and the switch count.
	wallColumn = regexp.MustCompile(`(?m)^( *[0-9]+  \S+) +\S+( +[0-9]+ +\S+)$`)
)

// TestGolden pins the demo's stdout with only wall times masked: every
// switch count and timing error of the depth sweep and of the quantum
// ablation stays exact. After an intended change, refresh with:
// go run ./examples/pipeline | sed -E 's/wall +[0-9][^ ]*/wall <wall>/; s/^( *[0-9]+  [^ ]+) +[^ ]+( +[0-9]+ +[^ ]+)$/\1 <wall>\2/' > examples/pipeline/testdata/stdout.golden
func TestGolden(t *testing.T) {
	var buf bytes.Buffer
	run(&buf)
	got := wall.ReplaceAllString(buf.String(), "wall <wall>")
	got = wallColumn.ReplaceAllString(got, "$1 <wall>$2")
	want, err := os.ReadFile("testdata/stdout.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("masked stdout differs from testdata/stdout.golden\n--- got\n%s--- want\n%s", got, want)
	}
}
