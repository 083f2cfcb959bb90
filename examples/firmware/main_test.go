package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

// wall matches a "wall <duration>" field, the only wall-clock output.
var wall = regexp.MustCompile(`wall +[0-9]\S*`)

// TestGolden pins the demo's stdout with only the two wall times masked:
// switch and instruction counts, the registers the firmware read, the
// identical-dates verdict and the job dates stay exact. After an intended
// change, refresh with:
// go run ./examples/firmware | sed -E 's/wall +[0-9][^ ]*/wall <wall>/' > examples/firmware/testdata/stdout.golden
func TestGolden(t *testing.T) {
	var buf bytes.Buffer
	run(&buf)
	got := wall.ReplaceAllString(buf.String(), "wall <wall>")
	want, err := os.ReadFile("testdata/stdout.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("masked stdout differs from testdata/stdout.golden\n--- got\n%s--- want\n%s", got, want)
	}
}
