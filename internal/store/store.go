// Package store is the durable campaign log: an append-only, crash-safe
// write-ahead journal that turns the campaign layer's in-process fault
// tolerance into restart-surviving robustness. The engine journals job
// lifecycle events (submission with the full spec document, per-point
// completion keyed by the canonical scenario hash, finish, explicit
// cancellation) as length-prefixed CRC32C-checksummed records appended
// to segment files; recovery scans the segments, truncates a torn tail
// record left by a crash instead of failing, and rebuilds (a) the job
// table — which jobs were running when the process died — and (b) a
// cross-restart point cache feeding campaign.Cache, so a resumed job
// re-executes only the points whose completion records never reached
// the disk. Because points are keyed by a canonical sha256 hash and
// outcomes are deterministic, replay is exactly-once by construction:
// the resumed campaign's results document is byte-identical to an
// uninterrupted run's.
//
// Durability is group-committed: an append queues its framed record in a
// pending batch and a single committer goroutine writes and fsyncs
// batches (fsync-on-commit, never one fsync per record), so the journal
// costs one syscall per burst of completions. The write and the fsync run
// outside the append lock: an append never waits for the disk, except the
// one that fills a segment and seals it. Sync still waits for a batch
// already in flight. Losing the unsynced tail in a crash is safe — the
// only consequence is recomputing the dropped points, never wrong output.
package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/scenario"
)

// WriteSyncer is the sink a segment file is written through: an
// io.Writer whose Sync makes everything written so far durable.
// *os.File satisfies it; tests inject fault-injecting implementations
// (see TruncatingSyncer) to simulate crashes that drop tail bytes.
type WriteSyncer interface {
	io.Writer
	Sync() error
	Close() error
}

// Record types. The byte values are on-disk format: never renumber.
const (
	recJobSubmitted   byte = 1
	recPointCompleted byte = 2
	recJobFinished    byte = 3
	recJobCancelled   byte = 4
)

// frame layout: u32le payload length | u32le CRC32C(payload) | payload,
// payload = type byte + JSON body.
const (
	headerBytes = 8
	// maxRecordBytes bounds one record; a longer length field is treated
	// as corruption (a torn tail when it is the last record).
	maxRecordBytes = 16 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options tunes a store.
type Options struct {
	// SegmentBytes rotates to a new segment file once the current one
	// exceeds this size; 0 means 8 MiB.
	SegmentBytes int64
	// Metrics, when non-nil, receives record/fsync/recovery counters.
	Metrics *Metrics
	// OpenSegment opens (creating if needed, appending if existing) the
	// syncer a segment is written through; nil means the os.File
	// default. Tests inject fault-injecting syncers here.
	OpenSegment func(path string) (WriteSyncer, error)
}

func (o *Options) fill() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.OpenSegment == nil {
		o.OpenSegment = func(path string) (WriteSyncer, error) {
			return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		}
	}
}

// Store is the append-only campaign journal. All append methods are safe
// for concurrent use from campaign worker goroutines and are no-ops on a
// nil receiver, so callers never special-case "no store configured".
// Write errors are sticky: the first one is kept and reported by Err and
// Close, and later appends are dropped (the in-memory campaign keeps
// running; only durability is lost).
type Store struct {
	dir string
	opt Options

	// cmu serialises commits; it is taken before mu, never after. It
	// guards the segment, which is written, synced and closed with cmu
	// held and mu released, so an append never waits for the disk.
	cmu    sync.Mutex
	f      WriteSyncer
	segIdx int

	mu      sync.Mutex
	pending []byte // framed records appended since the last commit took them
	spare   []byte // the previous batch's buffer, reused as the next pending
	segSize int64
	err     error
	closed  bool

	commitC chan struct{}
	doneC   chan struct{}
}

// Open recovers the journal in dir (created if missing) and returns the
// store positioned to append after the last valid record, plus what the
// scan rebuilt. A torn tail record in the final segment — the signature
// of a crash mid-append or mid-sync — is truncated away and counted,
// never an error; corruption anywhere else is.
func Open(dir string, opt Options) (*Store, *Recovered, error) {
	opt.fill()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	segs, err := segments(dir)
	if err != nil {
		return nil, nil, err
	}
	rec := newRecovered()
	lastIdx, lastSize := 0, int64(0)
	for i, seg := range segs {
		final := i == len(segs)-1
		size, err := replaySegment(filepath.Join(dir, seg.name), final, rec)
		if err != nil {
			return nil, nil, err
		}
		if final {
			lastIdx, lastSize = seg.idx, size
		}
	}
	rec.finish()
	if opt.Metrics != nil {
		opt.Metrics.RecoveredPoints.Add(uint64(len(rec.Points)))
		opt.Metrics.TornTails.Add(uint64(rec.TornTails))
	}

	s := &Store{
		dir:     dir,
		opt:     opt,
		segIdx:  lastIdx,
		segSize: lastSize,
		commitC: make(chan struct{}, 1),
		doneC:   make(chan struct{}),
	}
	if s.segIdx == 0 {
		s.segIdx = 1
		s.segSize = 0
	}
	f, err := opt.OpenSegment(s.segPath(s.segIdx))
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	s.f = f
	syncDir(dir)
	go s.committer()
	return s, rec, nil
}

func (s *Store) segPath(idx int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%08d.wal", idx))
}

// segment is one discovered journal file.
type segment struct {
	name string
	idx  int
}

// segments lists the *.wal files in dir in index order.
func segments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var segs []segment
	for _, e := range entries {
		var idx int
		if _, err := fmt.Sscanf(e.Name(), "%08d.wal", &idx); err != nil || idx <= 0 {
			continue
		}
		segs = append(segs, segment{name: e.Name(), idx: idx})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].idx < segs[j].idx })
	return segs, nil
}

// syncDir fsyncs a directory so segment creation survives a crash on
// filesystems that need it; best-effort (some platforms refuse).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// committer is the group-commit goroutine: one fsync covers every append
// since the previous one, so a burst of point completions costs a single
// syscall, and appenders keep queueing records while it runs.
func (s *Store) committer() {
	defer close(s.doneC)
	for range s.commitC {
		s.commit(false)
	}
}

// commit takes the pending batch under mu, then writes and fsyncs it with
// mu released. Once the segment is full it seals it: the batch's sync,
// then close, then (unless closing) the next segment and a directory
// fsync. Closing closes the segment instead. The first error is kept.
func (s *Store) commit(closing bool) {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	s.mu.Lock()
	batch, err := s.pending, s.err
	s.pending, s.spare = s.spare[:0], nil
	seal := s.segSize >= s.opt.SegmentBytes && err == nil && !closing
	if seal {
		s.segSize = 0 // later appends go to the next segment
	}
	s.mu.Unlock()
	if s.f == nil {
		return
	}
	synced := false
	if err == nil && len(batch) > 0 {
		if _, err = s.f.Write(batch); err != nil {
			err = fmt.Errorf("store: append: %w", err)
		} else if err = s.f.Sync(); err != nil {
			err = fmt.Errorf("store: sync: %w", err)
		}
		synced = err == nil
	}
	if closing || seal && err == nil {
		if cerr := s.f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("store: close: %w", cerr)
		}
		s.f = nil
		if seal && err == nil {
			s.segIdx++
			if f, oerr := s.opt.OpenSegment(s.segPath(s.segIdx)); oerr != nil {
				err = fmt.Errorf("store: %w", oerr)
			} else {
				s.f = f
				syncDir(s.dir)
			}
		}
	}
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	if synced && s.opt.Metrics != nil {
		s.opt.Metrics.Fsyncs.Inc()
	}
	if cap(batch) <= 1<<18 { // shed an unusually large burst's buffer
		s.spare = batch[:0]
	}
	s.mu.Unlock()
}

// append encodes one record's body and buffers the record.
func (s *Store) append(typ byte, body any) error {
	if s == nil {
		return nil
	}
	js, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("store: encoding record: %w", err)
	}
	payload := make([]byte, 0, 1+len(js))
	payload = append(payload, typ)
	payload = append(payload, js...)
	return s.write(payload)
}

// write frames and buffers one record payload (type byte + JSON body)
// and rings the commit doorbell.
func (s *Store) write(payload []byte) error {
	typ := payload[0]
	var hdr [headerBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, castagnoli))

	s.mu.Lock()
	if s.closed || s.err != nil {
		defer s.mu.Unlock()
		if s.closed {
			return fmt.Errorf("store: closed")
		}
		return s.err
	}
	s.pending = append(append(s.pending, hdr[:]...), payload...)
	s.segSize += int64(headerBytes + len(payload))
	s.opt.Metrics.countRecord(typ)
	full := s.segSize >= s.opt.SegmentBytes
	select {
	case s.commitC <- struct{}{}:
	default:
	}
	s.mu.Unlock()
	if !full {
		return nil
	}
	s.commit(false) // the append that fills a segment seals it
	return s.Err()
}

// JobSubmitted journals a campaign submission: the id, display name,
// expansion sizes and the full spec document (what recovery re-expands
// to resume the job).
func (s *Store) JobSubmitted(id, name string, points, total int, spec []byte) error {
	return s.append(recJobSubmitted, &jobSubmittedBody{
		ID: id, Name: name, Points: points, Total: total, Spec: spec,
	})
}

// PointCompleted journals one deterministic point outcome under its
// canonical scenario hash. Recovery feeds these to the cross-restart
// cache, so journaled points are never recomputed.
func (s *Store) PointCompleted(hash string, out *scenario.Outcome) error {
	if s == nil {
		return nil
	}
	var js []byte
	if out != nil {
		js = out.AppendJSON(nil)
	}
	return s.PointCompletedJSON(hash, js)
}

// PointCompletedJSON is PointCompleted for an outcome given as its
// canonical JSON (scenario.Outcome.AppendJSON), as the campaign cache
// holds it. The body is appended from the bytes as they are — exactly
// what encoding/json writes for pointCompletedBody — with no reflective
// encoding.
func (s *Store) PointCompletedJSON(hash string, outcome []byte) error {
	if s == nil {
		return nil
	}
	p := make([]byte, 0, 1+len(`{"hash":"","outcome":}`)+len(hash)+len(outcome))
	p = append(p, recPointCompleted)
	p = append(p, `{"hash":`...)
	p = scenario.AppendJSONString(p, hash)
	p = append(p, `,"outcome":`...)
	if outcome == nil {
		p = append(p, "null"...)
	} else {
		p = append(p, outcome...)
	}
	return s.write(append(p, '}'))
}

// JobFinished journals a campaign that completed its results document.
func (s *Store) JobFinished(id string) error {
	return s.append(recJobFinished, &jobMarkBody{ID: id})
}

// JobCancelled journals an explicit cancellation — its own record type,
// distinct from JobFinished, so recovery knows not to resume the job.
// Engine shutdown deliberately does NOT write it: a drained job is still
// "running" in the log and resumes on the next boot.
func (s *Store) JobCancelled(id string) error {
	return s.append(recJobCancelled, &jobMarkBody{ID: id})
}

// Sync blocks until every record appended so far is durable, including
// a batch the committer has in flight (or the sticky write error is
// reported).
func (s *Store) Sync() error {
	if s == nil {
		return nil
	}
	s.commit(false)
	return s.Err()
}

// Err reports the sticky write error, if any.
func (s *Store) Err() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close commits everything pending, closes the current segment and stops
// the committer. A second Close waits for the first and reports the same
// error.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	first := !s.closed
	s.closed = true
	s.mu.Unlock()
	if first {
		s.commit(true)
		// Every doorbell is rung under mu by an append that saw !closed,
		// so none can follow this close.
		close(s.commitC)
	}
	<-s.doneC
	return s.Err()
}

// Record bodies (JSON, versioned implicitly by their record type).

type jobSubmittedBody struct {
	ID     string          `json:"id"`
	Name   string          `json:"name,omitempty"`
	Points int             `json:"points"`
	Total  int             `json:"total"`
	Spec   json.RawMessage `json:"spec"`
}

type pointCompletedBody struct {
	Hash    string            `json:"hash"`
	Outcome *scenario.Outcome `json:"outcome"`
}

type jobMarkBody struct {
	ID string `json:"id"`
}

// TruncatingSyncer is the fault-injection WriteSyncer: it reports every
// write as fully persisted but silently drops all bytes past Limit —
// exactly what a crash between a buffered append and its fsync leaves on
// disk (a torn tail record). Tests wrap the real segment file in one to
// prove recovery survives arbitrary truncation points.
type TruncatingSyncer struct {
	WS    WriteSyncer
	Limit int64

	off int64
}

// Write persists at most the bytes that fit under Limit and lies about
// the rest, like a crashed kernel would.
func (t *TruncatingSyncer) Write(p []byte) (int, error) {
	keep := t.Limit - t.off
	if keep > int64(len(p)) {
		keep = int64(len(p))
	}
	if keep > 0 {
		if _, err := t.WS.Write(p[:keep]); err != nil {
			return 0, err
		}
	}
	t.off += int64(len(p))
	return len(p), nil
}

// Sync passes through (the persisted prefix really is durable).
func (t *TruncatingSyncer) Sync() error { return t.WS.Sync() }

// Close passes through.
func (t *TruncatingSyncer) Close() error { return t.WS.Close() }
