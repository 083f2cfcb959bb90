package core_test

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fifo"
)

// TestPublicMethodSets pins the exported method sets of the channel types.
// bench/ and the models compile against them, and SmartFIFO and both bridge
// endpoints share one unexported core: a side's methods must not leak onto
// the other endpoint (as embedding the core in an endpoint would do). The
// baselines' rows keep them on the plain Reader/Writer surface: only the
// Smart-FIFO core has a native burst path.
func TestPublicMethodSets(t *testing.T) {
	cases := []struct {
		v any
		// hook is a test-only method export_test.go adds to the type.
		hook string
		want []string
	}{
		{v: (*core.SmartFIFO[int])(nil), want: []string{
			"Depth", "InternalSize", "IsEmpty", "IsFull", "Kernel", "Name",
			"NotEmpty", "NotFull", "Read", "ReadBurst", "SetBlockPolicy",
			"SetFault", "Size", "Stats", "Traffic", "TryRead", "TryReadBurst",
			"TryWrite", "TryWriteBurst", "Write", "WriteBurst",
		}},
		{v: (*core.ShardedFIFO[int])(nil), hook: "SetFault", want: []string{
			"Depth", "Flush", "FlushReaderSide", "FlushWriterSide", "Frontier",
			"Name", "Reader", "ReaderKernel", "Stats", "Traffic",
			"WriteFrontier", "Writer", "WriterKernel",
		}},
		{v: (*core.ShardedWriter[int])(nil), want: []string{
			"Depth", "IsFull", "Kernel", "Name", "NotFull", "Size",
			"TryWrite", "TryWriteBurst", "Write", "WriteBurst",
		}},
		{v: (*core.ShardedReader[int])(nil), want: []string{
			"Depth", "IsEmpty", "Kernel", "Name", "NotEmpty", "Read",
			"ReadBurst", "Size", "TryRead", "TryReadBurst",
		}},
		{v: (*fifo.FIFO[int])(nil), want: []string{
			"Depth", "IsEmpty", "IsFull", "Name", "NotEmpty", "NotFull",
			"Peek", "Read", "Size", "TryRead", "TryWrite", "Write",
		}},
		{v: (*fifo.SyncFIFO[int])(nil), want: []string{
			"Depth", "IsEmpty", "IsFull", "Name", "NotEmpty", "NotFull",
			"Read", "Size", "TryRead", "TryWrite", "Write",
		}},
	}
	for _, c := range cases {
		typ := reflect.TypeOf(c.v)
		var got []string
		for i := 0; i < typ.NumMethod(); i++ {
			if name := typ.Method(i).Name; name != c.hook {
				got = append(got, name)
			}
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%v methods:\n got  %v\n want %v", typ, got, c.want)
		}
	}
}
