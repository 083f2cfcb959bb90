package main

import (
	"bytes"
	"os"
	"testing"
)

// TestGolden pins the demo's whole stdout: the three dated traces, their
// context-switch counts and the verdict lines. Nothing in it depends on
// the wall clock, so nothing is masked. After an intended change, refresh
// with: go run ./examples/quickstart > examples/quickstart/testdata/stdout.golden
func TestGolden(t *testing.T) {
	var buf bytes.Buffer
	run(&buf)
	want, err := os.ReadFile("testdata/stdout.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("stdout differs from testdata/stdout.golden\n--- got\n%s--- want\n%s", got, want)
	}
}
