// Package sim implements a SystemC-like discrete-event simulation kernel.
//
// The kernel provides the substrate the paper assumes from IEEE SystemC:
// simulated time, events with immediate/delta/timed notification, thread
// processes (runtime coroutines, iter.Pull, resumed one at a time by the
// scheduler), method processes (run-to-completion callbacks with static and
// dynamic sensitivity), and delta cycles.
//
// Temporal decoupling (paper §II) is native: every process carries a local
// time offset manipulated with Inc, read with LocalTime, and discharged with
// Sync. A process whose offset is zero is said to be synchronized.
//
// The kernel is strictly deterministic: exactly one process runs at a time,
// runnable processes execute in FIFO order, and timed notifications fire in
// (time, insertion sequence) order, so a given model always produces the
// same trace. The §IV-A dual-mode validation relies on this.
package sim

import "fmt"

// Time is a simulated date or duration in picoseconds.
//
// It plays the role of sc_time: the same type is used for instants (dates
// since simulation start) and durations. Negative values are only used as
// sentinels (see Run).
type Time int64

// Time units, to be multiplied: 20 * sim.NS.
const (
	PS  Time = 1
	NS  Time = 1000 * PS
	US  Time = 1000 * NS
	MS  Time = 1000 * US
	SEC Time = 1000 * MS
)

// TimeMax is the largest representable date. Shard coordination uses it as
// the "no bound" frontier: a cross-shard channel whose writer has
// terminated can never deliver again, so its reader may run arbitrarily
// far ahead.
const TimeMax Time = 1<<63 - 1

// String renders the time with the largest exact unit, e.g. "20ns" or
// "1500ps".
func (t Time) String() string {
	if t < 0 {
		return fmt.Sprintf("-%v", -t)
	}
	switch {
	case t == 0:
		return "0s"
	case t%SEC == 0:
		return fmt.Sprintf("%ds", t/SEC)
	case t%MS == 0:
		return fmt.Sprintf("%dms", t/MS)
	case t%US == 0:
		return fmt.Sprintf("%dus", t/US)
	case t%NS == 0:
		return fmt.Sprintf("%dns", t/NS)
	default:
		return fmt.Sprintf("%dps", t/PS)
	}
}
