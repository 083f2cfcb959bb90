package scenario

import "testing"

// Allocation pins for the point hash: expanding a sweep hashes every
// point, so the hash must not pay for encoding/json's reflection.

// TestHashPointAllocs pins HashPoint to one allocation, its result
// string: the canonical bytes, the key order and the digest live on the
// stack.
func TestHashPointAllocs(t *testing.T) {
	p := Params{"blocks": 4, "words_per_block": 100, "depth": float64(16), "mode": "TDfull", "seed": float64(3)}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := HashPoint("pipeline", p); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("HashPoint: %v allocs per call, want 1 (the result string)", n)
	}
}
