package core

import "repro/internal/sim"

// ring is the timestamped cell store of an end (end.go): SmartFIFO's cells
// and each ShardedFIFO endpoint's mirror. It is laid out struct-of-arrays
// — payload, insertion dates and freeing dates in separate slices — so the
// bulk transfer paths (burst.go) can move payload with copy and sweep the
// date annotations in tight contiguous passes instead of walking an
// array-of-structs cell at a time.
//
// Occupancy is positional: because cells are filled and freed in strict
// ring rotation, the busy cells are exactly the range
// [firstBusy, firstBusy+nBusy) modulo depth, so no per-cell busy flag is
// stored.
type ring[T any] struct {
	data []T        // cell payloads (unused by the sharded writer mirror)
	ins  []sim.Time // per cell: last data-insertion date (§III-A)
	free []sim.Time // per cell: last freeing date (§III-A)

	firstBusy int // index of the oldest busy cell
	firstFree int // index of the oldest free cell
	nBusy     int
}

func newRing[T any](depth int) ring[T] {
	return ring[T]{
		data: make([]T, depth),
		ins:  make([]sim.Time, depth),
		free: make([]sim.Time, depth),
	}
}

func (r *ring[T]) depth() int { return len(r.ins) }

// datedSize applies the four-rule §III-C table to the ring at date now: the
// number of cells the real FIFO holds at that date, as far as this
// endpoint can know:
//
//   - an internally busy cell is really busy if its insertion date is in
//     the past, or its previous freeing date is in the future (it was freed
//     and refilled since the query date);
//   - an internally free cell is really busy if its freeing date is in the
//     future and its previous insertion date is in the past.
func (r *ring[T]) datedSize(now sim.Time) int {
	n := 0
	d := len(r.ins)
	for q := 0; q < d; q++ {
		off := q - r.firstBusy
		if off < 0 {
			off += d
		}
		if off < r.nBusy {
			if r.ins[q] <= now || r.free[q] > now {
				n++
			}
		} else {
			if r.free[q] > now && r.ins[q] <= now {
				n++
			}
		}
	}
	return n
}

// runDates is the vectorized date-annotation pass shared by the bulk write
// and read fast paths. Starting at the caller's local date, it walks m
// cells from q0 (wrapping), advancing the running local date by per before
// every word except (when incFirst is false) the first, then lifting it to
// the cell's bound date — the freeing date for a write run, the insertion
// date for a read run — exactly as the scalar path's Inc + AdvanceLocalTo
// pair does. The resulting per-word local date is stamped into stamp
// (insertion dates for writes, freeing dates for reads).
//
// It returns the final local date and the number of words whose bound was
// in the local future (the Writer/ReaderAdvances count).
func runDates(stamp, bound []sim.Time, q0, m int, local, per sim.Time, incFirst bool) (end sim.Time, advances uint64) {
	l := local
	inc := incFirst
	q := q0
	for m > 0 {
		seg := len(stamp) - q
		if seg > m {
			seg = m
		}
		s := stamp[q : q+seg]
		b := bound[q : q+seg]
		// The bound dates along a run are non-decreasing (each side
		// stamps them in ring order under the §III discipline), so if
		// the segment's last bound cannot lift the clock, none can: the
		// stamps are the pure arithmetic run l + i*per.
		if b[len(b)-1] <= l {
			if !inc {
				s[0] = l
				s = s[1:]
				inc = true
			}
			for j := range s {
				l += per
				s[j] = l
			}
		} else {
			for j := range s {
				if inc {
					l += per
				} else {
					inc = true
				}
				if bb := b[j]; bb > l {
					advances++
					l = bb
				}
				s[j] = l
			}
		}
		q = 0
		m -= seg
	}
	return l, advances
}

// tryRunDates sizes and stamps a non-blocking run: word i proceeds only if
// its bound date (insertion date for reads, freeing date for writes) is
// not after the running local date evaluated *before* the inter-word Inc —
// the scalar Try loop checks IsEmpty/IsFull at the previous word's date
// before advancing. A word that passes the check can never lift the local
// clock (its bound is already in the local past), so the stamped dates
// form the pure arithmetic run local + i*per and the run counts no
// advances.
//
// It returns the number of words stamped (possibly 0) and the final local
// date.
func tryRunDates(stamp, bound []sim.Time, q0, mMax int, local, per sim.Time) (m int, end sim.Time) {
	l := local
	q := q0
	d := len(stamp)
	for m < mMax {
		if bound[q] > l {
			break
		}
		if m > 0 {
			l += per
		}
		stamp[q] = l
		m++
		q++
		if q == d {
			q = 0
		}
	}
	return m, l
}
