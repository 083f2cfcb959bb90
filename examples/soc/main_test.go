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
	// gain matches the wall-derived gain percentage.
	gain = regexp.MustCompile(`gain: \S+`)
)

// TestGolden pins the demo's stdout with only the two wall times and the
// gain derived from them masked: the identical-dates and checksum
// verdicts, switch and bus-access counts, NoC traffic, job dates and
// monitor levels stay exact. After an intended change, refresh with:
// go run ./examples/soc | sed -E 's/wall +[0-9][^ ]*/wall <wall>/; s/gain: [^ ]+/gain: <gain>/' > examples/soc/testdata/stdout.golden
func TestGolden(t *testing.T) {
	var buf bytes.Buffer
	run(&buf)
	got := wall.ReplaceAllString(buf.String(), "wall <wall>")
	got = gain.ReplaceAllString(got, "gain: <gain>")
	want, err := os.ReadFile("testdata/stdout.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("masked stdout differs from testdata/stdout.golden\n--- got\n%s--- want\n%s", got, want)
	}
}
