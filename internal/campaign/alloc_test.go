package campaign

import (
	"io"
	"testing"
)

// Allocation pins for the streamed results path: a stream renders every
// row of a job, so a row must not allocate once its buffer has grown.

// TestStreamRowZeroAlloc pins the streamed row: rendered into a reused
// buffer, a row allocates nothing.
func TestStreamRowZeroAlloc(t *testing.T) {
	p := encodeRows()[2]
	line, err := StreamPointJSON(io.Discard, nil, &p, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, timing := range []bool{false, true} {
		if n := testing.AllocsPerRun(100, func() {
			line, _ = StreamPointJSON(io.Discard, line, &p, timing)
		}); n != 0 {
			t.Errorf("StreamPointJSON (timing %v): %v allocs per row, want 0", timing, n)
		}
	}
}
