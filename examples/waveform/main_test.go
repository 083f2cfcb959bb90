package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestGolden pins the demo's stdout and the VCD file it writes, byte for
// byte: the simulated end date, the FIFO counters and every probed level
// change. Nothing depends on the wall clock, so nothing is masked. The
// demo runs in a temporary directory so the printed file name is the
// default one. After an intended change, refresh from
// examples/waveform/testdata with:
// go run .. > stdout.golden && mv fifolevels.vcd fifolevels.vcd.golden
func TestGolden(t *testing.T) {
	wantOut, err := os.ReadFile("testdata/stdout.golden")
	if err != nil {
		t.Fatal(err)
	}
	wantVCD, err := os.ReadFile("testdata/fifolevels.vcd.golden")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	t.Chdir(dir)
	var buf bytes.Buffer
	if err := run(&buf, "fifolevels.vcd"); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(wantOut) {
		t.Errorf("stdout differs from testdata/stdout.golden\n--- got\n%s--- want\n%s", got, wantOut)
	}
	gotVCD, err := os.ReadFile(filepath.Join(dir, "fifolevels.vcd"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotVCD, wantVCD) {
		t.Errorf("VCD differs from testdata/fifolevels.vcd.golden (%d vs %d bytes)", len(gotVCD), len(wantVCD))
	}
}
