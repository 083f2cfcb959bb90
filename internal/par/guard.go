package par

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/sim"
)

// Guarded execution. Run and Kernel.Run can block forever on a model
// that never quiesces — a runaway process racking up timed steps, or a
// conservative stall where every frontier is frozen. RunGuarded and
// RunKernel wrap them with a supervisor goroutine that watches a
// context (the campaign engine's per-point deadline) and a no-progress
// watchdog, latches the cooperative interrupt when either fires, and —
// once the run has returned at a safe point — assembles a structured
// StallDiagnostic explaining what each shard and bridge was doing.
//
// The guards are strictly additive: with a background context and no
// stall window they take the plain Run path with zero overhead, so the
// default (healthy) configuration pays nothing.

// ErrStalled is the sentinel cause recorded when the no-progress
// watchdog — not the caller's context — ended a run: no kernel advanced
// simulated time across a full wall-clock stall window. That covers
// conservative deadlocks across bridges, delta-cycle livelocks pinned
// at one date, and model goroutines stuck in non-cooperative blocking
// calls; a merely wall-clock-slow model keeps simulated time moving and
// never trips it.
var ErrStalled = errors.New("par: no simulated-time progress within stall window")

// StallError is the structured failure returned by a guarded run that
// was interrupted. Cause is ErrStalled or the context's error;
// Unwrap exposes it to errors.Is, so context.DeadlineExceeded and
// ErrStalled both remain matchable.
type StallError struct {
	Cause error
	Diag  StallDiagnostic
}

func (e *StallError) Error() string {
	return fmt.Sprintf("%v\n%s", e.Cause, e.Diag.String())
}

func (e *StallError) Unwrap() error { return e.Cause }

// StallDiagnostic is a consistent snapshot of a stopped simulation: what
// every shard was waiting on and where every bridge's frontiers stood.
// It is collected only after the interrupted run has returned from its
// rendezvous, when no kernel is executing, so it is exact — not a racy
// sample of a moving target.
type StallDiagnostic struct {
	// Advances is the number of kernel Step dispatches that found work,
	// summed over the shards (0 for single-kernel runs) — the unit of
	// coordinator progress (Stats.Advances).
	Advances uint64 `json:"advances"`
	// GlobalNow is the conservative global date at the stop.
	GlobalNow sim.Time `json:"global_now"`
	// Shards describes every shard; single-kernel runs have one.
	Shards []ShardDiag `json:"shards"`
	// Bridges describes every cross-shard channel.
	Bridges []BridgeDiag `json:"bridges,omitempty"`
}

// ShardDiag is one shard's state at the stop.
type ShardDiag struct {
	Name string   `json:"name"`
	Now  sim.Time `json:"now"`
	// NextEvent is the shard's earliest pending activity; HasWork is
	// false when the shard is quiescent (NextEvent is then 0).
	NextEvent sim.Time `json:"next_event"`
	HasWork   bool     `json:"has_work"`
	// Horizon is the shard's last conservative bound (TimeMax when
	// unbounded or never computed).
	Horizon sim.Time `json:"horizon"`
	// Blocked lists thread processes that are neither terminated nor
	// runnable — what the shard was waiting on.
	Blocked []string `json:"blocked,omitempty"`
	// Beat is the shard's dispatch-liveness counter at the stop: in a
	// stalled run, a climbing Beat (vs an earlier diagnostic, or just
	// nonzero activity at a frozen date) distinguishes a delta-cycle
	// livelock from a kernel that is not dispatching at all.
	Beat uint64 `json:"beat"`
}

// BridgeDiag is one bridge's frontier state at the stop.
type BridgeDiag struct {
	Name   string `json:"name"`
	Writer string `json:"writer"`
	Reader string `json:"reader"`
	// Frontier bounds future deliveries to the reader; WriteFrontier
	// bounds the resume date of a credit-blocked writer.
	Frontier      sim.Time `json:"frontier"`
	WriteFrontier sim.Time `json:"write_frontier"`
}

// fmtTime renders a date, naming the unbounded sentinel explicitly —
// "TimeMax", never a fold that could read as a real (huge) date.
func fmtTime(t sim.Time) string {
	if t == sim.TimeMax {
		return "TimeMax"
	}
	return fmt.Sprintf("%d", int64(t))
}

// String renders the diagnostic as an indented multi-line report.
func (d StallDiagnostic) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stall diagnostic: advances %d, global now %s", d.Advances, fmtTime(d.GlobalNow))
	for _, s := range d.Shards {
		fmt.Fprintf(&b, "\n  shard %s: now=%s", s.Name, fmtTime(s.Now))
		if s.HasWork {
			fmt.Fprintf(&b, " next_event=%s", fmtTime(s.NextEvent))
		} else {
			b.WriteString(" next_event=none")
		}
		fmt.Fprintf(&b, " horizon=%s", fmtTime(s.Horizon))
		if len(s.Blocked) > 0 {
			fmt.Fprintf(&b, " blocked=[%s]", strings.Join(s.Blocked, " "))
		}
	}
	for _, br := range d.Bridges {
		// A terminated writer publishes WriteFrontier = TimeMax; print
		// it explicitly (with the reason) so a stall dump never leaves
		// a bridge's write side ambiguous.
		fmt.Fprintf(&b, "\n  bridge %s (%s->%s): frontier=%s write_frontier=%s",
			br.Name, br.Writer, br.Reader, fmtTime(br.Frontier), fmtTime(br.WriteFrontier))
		if br.WriteFrontier == sim.TimeMax {
			b.WriteString(" (writer terminated)")
		}
	}
	return b.String()
}

// Diagnose snapshots the coordinator's shards and bridges. Call it only
// while no shard kernel is running (after Run returned).
func (c *Coordinator) Diagnose() StallDiagnostic {
	d := StallDiagnostic{Advances: c.ctr.advances.Load(), GlobalNow: c.Now()}
	for _, s := range c.shards {
		sd := ShardDiag{
			Name:    s.k.Name(),
			Now:     s.k.Now(),
			Horizon: s.horizon,
			Blocked: s.k.Blocked(),
			Beat:    s.k.Beat(),
		}
		if s.horizon == 0 {
			sd.Horizon = sim.TimeMax // never computed
		}
		if at, ok := s.k.NextEventAt(); ok {
			sd.NextEvent, sd.HasWork = at, true
		}
		d.Shards = append(d.Shards, sd)
	}
	for _, b := range c.bridges {
		d.Bridges = append(d.Bridges, BridgeDiag{
			Name:          b.Name(),
			Writer:        b.WriterKernel().Name(),
			Reader:        b.ReaderKernel().Name(),
			Frontier:      b.Frontier(),
			WriteFrontier: b.WriteFrontier(),
		})
	}
	return d
}

// diagnoseKernel is the single-kernel analogue of Diagnose.
func diagnoseKernel(k *sim.Kernel) StallDiagnostic {
	d := StallDiagnostic{GlobalNow: k.Now()}
	sd := ShardDiag{
		Name:    k.Name(),
		Now:     k.Now(),
		Horizon: sim.TimeMax,
		Blocked: k.Blocked(),
		Beat:    k.Beat(),
	}
	if at, ok := k.NextEventAt(); ok {
		sd.NextEvent, sd.HasWork = at, true
	}
	d.Shards = append(d.Shards, sd)
	return d
}

// stallWindowKey carries the watchdog window through a context, so a
// scenario model — which receives only a ctx — can hand it down to the
// guarded run it builds internally.
type stallWindowKey struct{}

// WithStallWindow returns a context carrying the no-progress watchdog
// window for guarded runs built under it. A non-positive window
// disables the watchdog.
func WithStallWindow(ctx context.Context, w time.Duration) context.Context {
	return context.WithValue(ctx, stallWindowKey{}, w)
}

// StallWindowFrom extracts the watchdog window installed by
// WithStallWindow, or 0 (disabled) when absent.
func StallWindowFrom(ctx context.Context) time.Duration {
	if w, ok := ctx.Value(stallWindowKey{}).(time.Duration); ok {
		return w
	}
	return 0
}

// interruptible abstracts the two run shapes the supervisor guards.
type interruptible interface {
	interrupt()
	clearInterrupt()
	progressBeacon() uint64
	diagnose() StallDiagnostic
}

type coordTarget struct{ c *Coordinator }

func (t coordTarget) interrupt()                { t.c.Interrupt() }
func (t coordTarget) clearInterrupt()           { t.c.ClearInterrupt() }
func (t coordTarget) progressBeacon() uint64    { return t.c.Progress() }
func (t coordTarget) diagnose() StallDiagnostic { return t.c.Diagnose() }

type kernelTarget struct{ k *sim.Kernel }

func (t kernelTarget) interrupt()                { t.k.Interrupt() }
func (t kernelTarget) clearInterrupt()           { t.k.ClearInterrupt() }
func (t kernelTarget) progressBeacon() uint64    { return uint64(t.k.Beacon()) }
func (t kernelTarget) diagnose() StallDiagnostic { return diagnoseKernel(t.k) }

// guard runs body under a supervisor that interrupts the target when
// ctx ends or the progress beacon freezes for a full stall window. It
// returns nil when the run completed, ctx.Err() on plain cancellation,
// and a *StallError carrying the diagnostic on deadline or stall.
func guard(ctx context.Context, t interruptible, stall time.Duration, body func()) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Done() == nil && stall <= 0 {
		body() // fast path: nothing to guard, zero overhead
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	var (
		mu       sync.Mutex
		cause    error
		finished bool
	)
	fire := func(err error) {
		mu.Lock()
		if !finished && cause == nil {
			cause = err
			t.interrupt()
		}
		mu.Unlock()
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var tick <-chan time.Time
		if stall > 0 {
			ticker := time.NewTicker(stall)
			defer ticker.Stop()
			tick = ticker.C
		}
		last := t.progressBeacon()
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				fire(ctx.Err())
				return
			case <-tick:
				if p := t.progressBeacon(); p == last {
					fire(ErrStalled)
					return
				} else {
					last = p
				}
			}
		}
	}()
	// The supervisor never blocks on the run, so a shard panic
	// propagating out of body still tears it down via this defer.
	defer func() {
		close(done)
		wg.Wait()
	}()
	body()
	mu.Lock()
	finished = true
	err := cause
	mu.Unlock()
	if err == nil {
		return nil
	}
	// The run was interrupted at a safe point: unlatch so the caller
	// can resume or retry, and snapshot the consistent stopped state.
	t.clearInterrupt()
	if errors.Is(err, context.Canceled) {
		return err // caller abandoned the run; no diagnostic wanted
	}
	return &StallError{Cause: err, Diag: t.diagnose()}
}

// RunGuarded is Run with a supervisor: the run is interrupted when ctx
// is cancelled or its deadline passes, or when no shard makes progress
// for a full stall window (stall <= 0 disables the watchdog). It
// returns nil on completion, ctx.Err() on plain cancellation, and a
// *StallError with a StallDiagnostic taken at the stopping rendezvous on
// deadline or stall. With a background ctx and no stall window it is
// exactly Run.
func (c *Coordinator) RunGuarded(ctx context.Context, limit sim.Time, stall time.Duration) error {
	return guard(ctx, coordTarget{c}, stall, func() { c.Run(limit) })
}

// RunKernel guards a single-kernel run the same way RunGuarded guards a
// coordinated one, so unsharded models get the same deadline and
// watchdog semantics (with a one-shard diagnostic).
func RunKernel(ctx context.Context, k *sim.Kernel, limit sim.Time, stall time.Duration) error {
	return guard(ctx, kernelTarget{k}, stall, func() { k.Run(limit) })
}
