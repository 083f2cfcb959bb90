package pipeline

// Trace-equivalence pins for the burst-dominated configuration
// (Config.Burst): the bulk transfer paths must reproduce, bit for bit, the
// dated block log of the scalar per-word reference — across modes, depths
// and shard counts.

import (
	"fmt"
	"testing"
)

func resultKey(r Result) string {
	return fmt.Sprintf("%v|%x|%v", r.BlockDates, r.Checksum, r.SimEnd)
}

// TestBurstTraceEquivalence: at every depth of the acceptance grid, the
// chunked TDfull build (bulk Smart-FIFO paths) produces exactly the dates
// of the chunked TDless build (regular FIFOs, one Wait per word) — the
// §IV-A oracle on the bulk paths — and the chunked untimed build moves the
// same data.
func TestBurstTraceEquivalence(t *testing.T) {
	// 200 words in bursts of 32 leave a partial last chunk in each block.
	shapes := []struct{ burst, words int }{{2, 192}, {16, 192}, {64, 192}, {32, 200}}
	for _, depth := range []int{1, 4, 64} {
		for _, sh := range shapes {
			burst := sh.burst
			cfg := Config{Depth: depth, Burst: burst, Blocks: 5, WordsPerBlock: sh.words}
			ref := cfg
			ref.Mode = TDless
			bulk := cfg
			bulk.Mode = TDfull
			r1, r2 := Run(ref), Run(bulk)
			if resultKey(r1) != resultKey(r2) {
				t.Errorf("depth=%d burst=%d: TDburst diverges from chunked TDless:\nref  %s\nbulk %s",
					depth, burst, resultKey(r1), resultKey(r2))
			}
			un := cfg
			un.Mode = Untimed
			if r3 := Run(un); r3.Checksum != r1.Checksum {
				t.Errorf("depth=%d burst=%d: untimed chunked checksum differs", depth, burst)
			}
		}
	}
}

// TestBurstShardedMatchesSingleKernel: the chunked model over ShardedFIFO
// bridges on 2 and 3 kernels keeps the single-kernel dates (1-vs-N-shard
// bulk trace equivalence), also with a partial last chunk per block.
func TestBurstShardedMatchesSingleKernel(t *testing.T) {
	for _, depth := range []int{1, 4, 64} {
		for _, sh := range []struct{ burst, words int }{{16, 192}, {32, 200}} {
			cfg := Config{Mode: TDfull, Depth: depth, Burst: sh.burst, Blocks: 5, WordsPerBlock: sh.words}
			single := Run(cfg)
			for _, shards := range []int{2, 3} {
				sc := cfg
				sc.Shards = shards
				got := Run(sc)
				if resultKey(single) != resultKey(got) {
					t.Errorf("depth=%d burst=%d words=%d shards=%d: sharded burst run diverges:\nsingle  %s\nsharded %s",
						depth, sh.burst, sh.words, shards, resultKey(single), resultKey(got))
				}
			}
		}
	}
}

// TestBurstQuantumChunkedRuns: the quantum ablation also accepts the
// chunked model (its per-word delayer between chunk words), moving the
// same data; its timing error stays the ablation's business.
func TestBurstQuantumChunkedRuns(t *testing.T) {
	ref := Run(Config{Mode: TDless, Depth: 8, Burst: 16, Blocks: 3, WordsPerBlock: 96})
	q := Run(Config{Mode: Quantum, Depth: 8, Burst: 16, Blocks: 3, WordsPerBlock: 96, QuantumValue: 100})
	if q.Checksum != ref.Checksum {
		t.Errorf("quantum chunked checksum differs: %x vs %x", q.Checksum, ref.Checksum)
	}
	if len(q.BlockDates) != len(ref.BlockDates) {
		t.Errorf("quantum chunked block count differs: %d vs %d", len(q.BlockDates), len(ref.BlockDates))
	}
}
