package store

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
)

// openFile is the default segment opener, for syncers that wrap a real
// file.
func openFile(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// parkingSyncer parks its first Sync until release is closed and signals
// entered when it does; later Syncs pass straight through.
type parkingSyncer struct {
	*os.File
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (p *parkingSyncer) Sync() error {
	p.once.Do(func() {
		close(p.entered)
		<-p.release
	})
	return p.File.Sync()
}

// TestAppendsDoNotWaitForFsync parks the committer inside its fsync and
// requires appends to keep returning meanwhile; the records they queued
// then reach the disk in at most two more fsyncs. Under a commit that
// holds the append lock across its fsync the appends time out instead.
func TestAppendsDoNotWaitForFsync(t *testing.T) {
	const timeout = 5 * time.Second
	dir := t.TempDir()
	ps := &parkingSyncer{entered: make(chan struct{}), release: make(chan struct{})}
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(ps.release) }) }
	m := NewMetrics(metrics.NewRegistry())
	s, _, err := Open(dir, Options{Metrics: m, OpenSegment: func(path string) (WriteSyncer, error) {
		f, err := openFile(path)
		ps.File = f
		return ps, err
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer release() // before Close, so a failing run never leaves the fsync parked

	if err := s.JobSubmitted("c1", "park", 64, 64, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ps.entered:
	case <-time.After(timeout):
		t.Fatal("the committer never entered Sync")
	}

	var wg sync.WaitGroup
	var failed atomic.Int32
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				if err := s.PointCompleted(fmt.Sprintf("h%d-%02d", g, i), outcome(i)); err != nil {
					failed.Add(1)
				}
			}
		}(g)
	}
	appended := make(chan struct{})
	go func() { wg.Wait(); close(appended) }()
	select {
	case <-appended:
	case <-time.After(timeout):
		t.Fatal("appends waited for the parked fsync")
	}
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d appends failed", n)
	}

	synced := make(chan error, 1)
	go func() { synced <- s.Sync() }()
	select {
	case err := <-synced:
		t.Fatalf("Sync returned (%v) while a batch was still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	if got := m.Fsyncs.Value(); got != 0 {
		t.Fatalf("Fsyncs = %d while the first fsync is parked", got)
	}
	release()
	if err := <-synced; err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if got := m.Fsyncs.Value(); got < 2 || got > 3 {
		t.Errorf("Fsyncs = %d, want the parked one plus 1 or 2 for the 64 queued records", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2.Close()
	if rec.Records != 65 || len(rec.Points) != 64 {
		t.Errorf("recovered %d records, %d points; want 65, 64", rec.Records, len(rec.Points))
	}
}

// TestCloseRacesAppends closes the store while 8 goroutines append, with
// default segments and with segments so small that nearly every append
// seals one. Every append returns nil or the closed error, and every
// record whose append returned nil is recovered.
func TestCloseRacesAppends(t *testing.T) {
	for _, segBytes := range []int64{0, 128} {
		t.Run(fmt.Sprintf("SegmentBytes=%d", segBytes), func(t *testing.T) {
			dir := t.TempDir()
			opt := Options{SegmentBytes: segBytes}
			s, _, err := Open(dir, opt)
			if err != nil {
				t.Fatal(err)
			}
			var (
				wg       sync.WaitGroup
				total    atomic.Int32
				mu       sync.Mutex
				accepted []string
			)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; ; i++ {
						h := fmt.Sprintf("h%d-%04d", g, i)
						err := s.PointCompleted(h, outcome(i))
						if err != nil {
							if err.Error() != "store: closed" {
								t.Errorf("append %s: %v", h, err)
							}
							return
						}
						total.Add(1)
						mu.Lock()
						accepted = append(accepted, h)
						mu.Unlock()
					}
				}(g)
			}
			for deadline := time.Now().Add(5 * time.Second); total.Load() < 64 && time.Now().Before(deadline); {
				time.Sleep(100 * time.Microsecond)
			}
			if err := s.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
			wg.Wait()

			s2, rec, err := Open(dir, opt)
			if err != nil {
				t.Fatal(err)
			}
			s2.Close()
			for _, h := range accepted {
				if _, ok := rec.Points[h]; !ok {
					t.Errorf("accepted record %s not recovered", h)
				}
			}
			if len(rec.Points) != len(accepted) {
				t.Errorf("recovered %d points, %d appends were accepted", len(rec.Points), len(accepted))
			}
		})
	}
}

var (
	errFirstSync = errors.New("injected sync failure")
	errLaterSync = errors.New("later sync failure")
	errClose     = errors.New("close failure")
)

// failingSyncer fails its first Sync with errFirstSync and every later
// one with errLaterSync; Close closes the file and reports errClose.
type failingSyncer struct {
	*os.File
	syncs int
}

func (f *failingSyncer) Sync() error {
	if f.syncs++; f.syncs == 1 {
		return errFirstSync
	}
	return errLaterSync
}

func (f *failingSyncer) Close() error {
	f.File.Close()
	return errClose
}

// TestSyncErrorIsSticky fails the first fsync: Err, Sync, Close and every
// later append report that first error, and no record appended after the
// failure reaches the file.
func TestSyncErrorIsSticky(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{OpenSegment: func(path string) (WriteSyncer, error) {
		f, err := openFile(path)
		return &failingSyncer{File: f}, err
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.JobSubmitted("c1", "sticky", 4, 4, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); !errors.Is(err, errFirstSync) {
		t.Fatalf("Sync = %v, want %v", err, errFirstSync)
	}
	for i := 0; i < 4; i++ {
		if err := s.PointCompleted(fmt.Sprintf("h%d", i), outcome(i)); !errors.Is(err, errFirstSync) {
			t.Errorf("append %d after the failure = %v, want %v", i, err, errFirstSync)
		}
	}
	if err := s.Err(); !errors.Is(err, errFirstSync) {
		t.Errorf("Err = %v, want %v", err, errFirstSync)
	}
	if err := s.Sync(); !errors.Is(err, errFirstSync) {
		t.Errorf("second Sync = %v, want %v", err, errFirstSync)
	}
	if err := s.Close(); !errors.Is(err, errFirstSync) {
		t.Errorf("Close = %v, want %v", err, errFirstSync)
	}

	s2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2.Close()
	// The failed commit wrote its batch before the fsync failed; nothing
	// appended after the failure was written.
	if rec.Records != 1 || len(rec.Jobs) != 1 || len(rec.Points) != 0 {
		t.Errorf("recovered %d records (%d jobs, %d points), want only the job written before the failure",
			rec.Records, len(rec.Jobs), len(rec.Points))
	}
}
