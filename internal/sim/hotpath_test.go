package sim

import (
	"os/exec"
	"regexp"
	"testing"
)

// Pins for the Smart FIFO's per-access kernel calls: NotifyDelta's
// counting and replacement semantics, and the inlining the access paths
// rely on.

// TestNotifyDeltaCounting: every NotifyDelta call counts one notification,
// also while a delta notification is already pending; it replaces a
// pending timed notification and clears an elided record; the event fires
// once, in the next delta cycle.
func TestNotifyDeltaCounting(t *testing.T) {
	k := NewKernel("t")
	e := NewEvent(k, "e")
	quiet := NewEvent(k, "quiet") // never subscribed: NotifyAtReplace elides
	var fires []Time
	var notifiedAt, firedAt uint64
	k.Thread("waiter", func(p *Process) {
		for {
			p.WaitEvent(e)
			fires = append(fires, k.Now())
			firedAt = k.stats.DeltaCycles
		}
	})
	k.Thread("notifier", func(p *Process) {
		count := func(what string, want uint64, f func()) {
			before := k.stats.Notifications
			f()
			if got := k.stats.Notifications - before; got != want {
				t.Errorf("%s: %d notifications counted, want %d", what, got, want)
			}
		}
		count("NotifyDelayed", 1, func() { e.NotifyDelayed(30 * NS) })
		count("NotifyDelta over a timed notification", 1, e.NotifyDelta)
		if e.timedPending || e.pend.queued() {
			t.Error("the timed notification survived NotifyDelta")
		}
		if !e.deltaPending {
			t.Error("no delta notification pending")
		}
		count("NotifyDelta while pending", 1, e.NotifyDelta)
		count("third NotifyDelta", 1, e.NotifyDelta)
		notifiedAt = k.stats.DeltaCycles

		count("elided NotifyAtReplace", 0, func() { quiet.NotifyAtReplace(50 * NS) })
		if !quiet.elided {
			t.Fatal("NotifyAtReplace on an unsubscribed event was not elided")
		}
		count("NotifyDelta over an elided record", 1, quiet.NotifyDelta)
		if quiet.elided {
			t.Error("NotifyDelta left the elided record")
		}
		if at, ok := quiet.PendingAt(); !ok || at != 0 {
			t.Errorf("PendingAt after NotifyDelta = %v,%v; want 0s,true", at, ok)
		}
	})
	k.Run(RunForever)
	k.Shutdown()
	if len(fires) != 1 || fires[0] != 0 {
		t.Fatalf("fired at %v, want once at 0s", fires)
	}
	if firedAt != notifiedAt+1 {
		t.Errorf("fired in delta cycle %d, want the next one, %d", firedAt, notifiedAt+1)
	}
}

// TestHotPathInlines guards the inlining the Smart FIFO's access paths are
// built on: a change that pushes one of these past the compiler's inlining
// budget puts a call back on every FIFO access.
func TestHotPathInlines(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not on PATH")
	}
	out, err := exec.Command(goTool, "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	for _, fn := range []string{
		"(*Event).NotifyDelta",
		"(*Kernel).Current",
		"(*Process).LocalTime",
		"(*Process).AdvanceLocalTo",
	} {
		re := regexp.MustCompile(`(?m)^\S+: can inline ` + regexp.QuoteMeta(fn) + `$`)
		if !re.Match(out) {
			t.Errorf("%s no longer inlines (want %q in the -gcflags=-m output)", fn, "can inline "+fn)
		}
	}
}
