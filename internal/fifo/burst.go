package fifo

import "repro/internal/sim"

// Burst transfers. Every burst follows the contract of
// internal/core/burst.go: word 0 is transferred at the caller's current
// local date and per of local time is advanced between consecutive words —
// the scalar oracle
//
//	for i, v := range vals { if i > 0 { p.Inc(per) }; w.Write(v) }
//
// (with the IsFull/IsEmpty pre-checks for the Try variants). The Smart-FIFO
// core (core.SmartFIFO and both core.ShardedFIFO endpoints) implements
// BurstWriter/BurstReader natively; the package helpers dispatch to that
// path when available and run the scalar loop otherwise, which is what the
// baselines (FIFO, SyncFIFO) get. Model code is written once against the
// plain Reader/Writer interfaces.

// BurstWriter is the optional bulk write-side interface. The Smart FIFO and
// the sharded bridge endpoints implement it with one run-based fast path.
type BurstWriter[T any] interface {
	// WriteBurst writes vals in order, advancing the caller's local
	// clock by per between consecutive words; it blocks like Write.
	WriteBurst(vals []T, per sim.Time)
	// TryWriteBurst writes up to len(vals) acceptable words without
	// blocking and returns the number written.
	TryWriteBurst(vals []T, per sim.Time) int
}

// BurstReader is the optional bulk read-side interface.
type BurstReader[T any] interface {
	// ReadBurst fills dst in order, advancing the caller's local clock
	// by per between consecutive words; it blocks like Read.
	ReadBurst(dst []T, per sim.Time)
	// TryReadBurst pops up to len(dst) available words without blocking
	// and returns the number read.
	TryReadBurst(dst []T, per sim.Time) int
}

// WriteBurst writes vals through w under the burst contract, taking w's
// native bulk path when it has one.
func WriteBurst[T any](p *sim.Process, w Writer[T], vals []T, per sim.Time) {
	if bw, ok := w.(BurstWriter[T]); ok {
		bw.WriteBurst(vals, per)
		return
	}
	for i, v := range vals {
		if i > 0 {
			p.Inc(per)
		}
		w.Write(v)
	}
}

// ReadBurst fills dst from r under the burst contract, taking r's native
// bulk path when it has one.
func ReadBurst[T any](p *sim.Process, r Reader[T], dst []T, per sim.Time) {
	if br, ok := r.(BurstReader[T]); ok {
		br.ReadBurst(dst, per)
		return
	}
	for i := range dst {
		if i > 0 {
			p.Inc(per)
		}
		dst[i] = r.Read()
	}
}

// TryWriteBurst writes up to len(vals) words through w without blocking and
// returns the number written.
func TryWriteBurst[T any](p *sim.Process, w Writer[T], vals []T, per sim.Time) int {
	if bw, ok := w.(BurstWriter[T]); ok {
		return bw.TryWriteBurst(vals, per)
	}
	n := 0
	for i, v := range vals {
		if i > 0 {
			if w.IsFull() {
				break
			}
			p.Inc(per)
		}
		if !w.TryWrite(v) {
			break
		}
		n++
	}
	return n
}

// TryReadBurst pops up to len(dst) words from r without blocking and
// returns the number read.
func TryReadBurst[T any](p *sim.Process, r Reader[T], dst []T, per sim.Time) int {
	if br, ok := r.(BurstReader[T]); ok {
		return br.TryReadBurst(dst, per)
	}
	n := 0
	for i := range dst {
		if i > 0 {
			if r.IsEmpty() {
				break
			}
			p.Inc(per)
		}
		v, ok := r.TryRead()
		if !ok {
			break
		}
		dst[i] = v
		n++
	}
	return n
}
