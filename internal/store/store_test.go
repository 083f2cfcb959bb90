package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
)

func outcome(i int) *scenario.Outcome {
	return &scenario.Outcome{
		SimEndNS:    int64(1000 + i),
		CtxSwitches: uint64(i),
		Checksums:   []uint64{uint64(i) * 7, uint64(i) * 13},
		DatesHash:   fmt.Sprintf("dh-%04d", i),
	}
}

// writeSampleLog journals one finished job, one interrupted job and a
// batch of point outcomes, then closes the store.
func writeSampleLog(t *testing.T, dir string, opt Options) {
	t.Helper()
	s, rec, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if len(rec.Jobs) != 0 || len(rec.Points) != 0 {
		t.Fatalf("fresh dir recovered %d jobs, %d points", len(rec.Jobs), len(rec.Points))
	}
	if err := s.JobSubmitted("c1", "alpha", 4, 3, []byte(`{"model":"pipeline"}`)); err != nil {
		t.Fatalf("JobSubmitted: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := s.PointCompleted(fmt.Sprintf("h%d", i), outcome(i)); err != nil {
			t.Fatalf("PointCompleted: %v", err)
		}
	}
	if err := s.JobFinished("c1"); err != nil {
		t.Fatalf("JobFinished: %v", err)
	}
	if err := s.JobSubmitted("c2", "beta", 2, 2, []byte(`{"model":"fifo"}`)); err != nil {
		t.Fatalf("JobSubmitted c2: %v", err)
	}
	if err := s.PointCompleted("h9", outcome(9)); err != nil {
		t.Fatalf("PointCompleted h9: %v", err)
	}
	// c2 gets no terminal record: it must replay as interrupted.
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	writeSampleLog(t, dir, Options{})

	s, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s.Close()
	if rec.TornTails != 0 {
		t.Errorf("TornTails = %d, want 0", rec.TornTails)
	}
	if rec.Records != 7 {
		t.Errorf("Records = %d, want 7", rec.Records)
	}
	if len(rec.Jobs) != 2 {
		t.Fatalf("recovered %d jobs, want 2", len(rec.Jobs))
	}
	c1, c2 := rec.Jobs[0], rec.Jobs[1]
	if c1.ID != "c1" || c1.State != JobFinished || c1.Name != "alpha" || c1.Points != 4 || c1.Total != 3 {
		t.Errorf("c1 = %+v", c1)
	}
	if string(c1.Spec) != `{"model":"pipeline"}` {
		t.Errorf("c1 spec = %s", c1.Spec)
	}
	if c2.ID != "c2" || c2.State != JobRunning {
		t.Errorf("c2 = %+v", c2)
	}
	if got := rec.Interrupted(); len(got) != 1 || got[0].ID != "c2" {
		t.Errorf("Interrupted = %v", got)
	}
	if len(rec.Points) != 4 {
		t.Fatalf("recovered %d points, want 4", len(rec.Points))
	}
	for i := 0; i < 3; i++ {
		got, ok := rec.Points[fmt.Sprintf("h%d", i)]
		if !ok {
			t.Fatalf("point h%d missing", i)
		}
		want := outcome(i)
		if got.SimEndNS != want.SimEndNS || got.DatesHash != want.DatesHash ||
			len(got.Checksums) != 2 || got.Checksums[0] != want.Checksums[0] {
			t.Errorf("h%d = %+v, want %+v", i, got, *want)
		}
	}
	if hs := rec.Hashes(); len(hs) != 4 || hs[0] != "h0" || hs[3] != "h9" {
		t.Errorf("Hashes = %v", hs)
	}
}

func TestAppendAfterReopen(t *testing.T) {
	dir := t.TempDir()
	writeSampleLog(t, dir, Options{})

	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if err := s.JobFinished("c2"); err != nil {
		t.Fatalf("JobFinished after reopen: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	if len(rec.Interrupted()) != 0 {
		t.Errorf("c2 still interrupted after journaled finish")
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every record or two forces a rotation.
	opt := Options{SegmentBytes: 128}
	s, _, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	s.JobSubmitted("c1", "rot", 40, 40, []byte(`{"model":"pipeline"}`))
	for i := 0; i < 40; i++ {
		s.PointCompleted(fmt.Sprintf("h%02d", i), outcome(i))
	}
	s.JobFinished("c1")
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	segs, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("got %d segments, want rotation to produce >= 3", len(segs))
	}

	_, rec, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if rec.Segments != len(segs) && rec.Segments != len(segs)+1 {
		t.Errorf("scanned %d segments, dir has %d", rec.Segments, len(segs))
	}
	if len(rec.Points) != 40 {
		t.Errorf("recovered %d points across segments, want 40", len(rec.Points))
	}
	if rec.Jobs[0].State != JobFinished {
		t.Errorf("c1 state = %s", rec.Jobs[0].State)
	}
}

func TestTerminalRecordsLatch(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.JobSubmitted("c1", "", 1, 1, []byte(`{}`))
	s.JobFinished("c1")
	s.JobCancelled("c1")  // later terminal record must not overwrite
	s.JobCancelled("c99") // unknown id: tolerated, not an error
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if rec.Jobs[0].State != JobFinished {
		t.Errorf("state = %s, want finished (first terminal record wins)", rec.Jobs[0].State)
	}
}

func TestNilStoreNoOps(t *testing.T) {
	var s *Store
	if err := s.JobSubmitted("c1", "", 0, 0, nil); err != nil {
		t.Errorf("nil JobSubmitted: %v", err)
	}
	if err := s.PointCompleted("h", outcome(0)); err != nil {
		t.Errorf("nil PointCompleted: %v", err)
	}
	if err := s.JobFinished("c1"); err != nil {
		t.Errorf("nil JobFinished: %v", err)
	}
	if err := s.JobCancelled("c1"); err != nil {
		t.Errorf("nil JobCancelled: %v", err)
	}
	if err := s.Sync(); err != nil {
		t.Errorf("nil Sync: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	s, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.JobFinished("c1"); err == nil {
		t.Error("append after Close succeeded")
	}
}

// lastSegment returns the path of the highest-index segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := segments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments(%s): %v (%d)", dir, err, len(segs))
	}
	return filepath.Join(dir, segs[len(segs)-1].name)
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	writeSampleLog(t, dir, Options{})
	seg := lastSegment(t, dir)

	// A crash mid-append leaves a partial frame: simulate with garbage.
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xde, 0xad, 0xbe})
	f.Close()

	s, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open with torn tail: %v", err)
	}
	s.Close()
	if rec.TornTails != 1 {
		t.Errorf("TornTails = %d, want 1", rec.TornTails)
	}
	if rec.Records != 7 {
		t.Errorf("Records = %d, want all 7 intact records", rec.Records)
	}

	// The truncation is repaired on disk: a second scan is clean.
	_, rec2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec2.TornTails != 0 {
		t.Errorf("second scan TornTails = %d, want 0 (tail was repaired)", rec2.TornTails)
	}
}

// TestRecoverEveryPrefix is the property test: for EVERY byte length L of
// the segment, a log truncated to L bytes recovers without error, yields
// exactly the records whose frames fit wholly inside L, and counts at
// most one torn tail.
func TestRecoverEveryPrefix(t *testing.T) {
	master := t.TempDir()
	writeSampleLog(t, master, Options{})
	data, err := os.ReadFile(lastSegment(t, master))
	if err != nil {
		t.Fatal(err)
	}

	// Frame boundaries, for predicting how many records survive a cut.
	var bounds []int64
	for off := int64(0); off < int64(len(data)); {
		bounds = append(bounds, off)
		// Advance by one frame using the length field at off.
		n := int64(data[off]) | int64(data[off+1])<<8 | int64(data[off+2])<<16 | int64(data[off+3])<<24
		off += headerBytes + n
	}
	bounds = append(bounds, int64(len(data)))
	recordsBelow := func(l int64) int {
		n := 0
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= l {
				n = i
			}
		}
		return n
	}

	for l := int64(0); l <= int64(len(data)); l++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "00000001.wal"), data[:l], 0o644); err != nil {
			t.Fatal(err)
		}
		s, rec, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("truncated to %d bytes: Open: %v", l, err)
		}
		s.Close()
		wantRecords := recordsBelow(l)
		if rec.Records != wantRecords {
			t.Fatalf("truncated to %d: recovered %d records, want %d", l, rec.Records, wantRecords)
		}
		onBoundary := bounds[wantRecords] == l
		if onBoundary && rec.TornTails != 0 {
			t.Fatalf("truncated to %d (frame boundary): TornTails = %d", l, rec.TornTails)
		}
		if !onBoundary && rec.TornTails != 1 {
			t.Fatalf("truncated to %d (mid-frame): TornTails = %d, want 1", l, rec.TornTails)
		}
	}
}

// TestTruncatingSyncer drives the fault-injection path end to end: a
// store whose segment silently drops bytes past Limit — a crash between
// append and fsync — recovers to the persisted prefix.
func TestTruncatingSyncer(t *testing.T) {
	dir := t.TempDir()
	const limit = 100
	opt := Options{OpenSegment: func(path string) (WriteSyncer, error) {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		return &TruncatingSyncer{WS: f, Limit: limit}, nil
	}}
	s, _, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	s.JobSubmitted("c1", "faulty", 8, 8, []byte(`{"model":"pipeline"}`))
	for i := 0; i < 8; i++ {
		s.PointCompleted(fmt.Sprintf("h%d", i), outcome(i))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close through truncating syncer: %v", err)
	}

	if fi, err := os.Stat(lastSegment(t, dir)); err != nil || fi.Size() > limit {
		t.Fatalf("segment size = %v (err %v), want <= %d", fi.Size(), err, limit)
	}
	s2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovering dropped-tail log: %v", err)
	}
	defer s2.Close()
	if len(rec.Points) >= 8 {
		t.Fatalf("recovered %d points, expected the tail to be lost", len(rec.Points))
	}
	if len(rec.Jobs) != 1 || rec.Jobs[0].State != JobRunning {
		t.Fatalf("jobs = %+v, want one interrupted job", rec.Jobs)
	}
}

func TestCorruptNonFinalSegmentIsError(t *testing.T) {
	dir := t.TempDir()
	opt := Options{SegmentBytes: 128}
	s, _, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	s.JobSubmitted("c1", "corrupt", 20, 20, []byte(`{"model":"pipeline"}`))
	for i := 0; i < 20; i++ {
		s.PointCompleted(fmt.Sprintf("h%02d", i), outcome(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := segments(dir)
	if len(segs) < 2 {
		t.Fatalf("need >= 2 segments, got %d", len(segs))
	}
	// Flip one payload byte in the FIRST segment: not a torn tail, real
	// corruption — recovery must refuse.
	first := filepath.Join(dir, segs[0].name)
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[headerBytes+2] ^= 0xff
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, opt); err == nil {
		t.Fatal("Open accepted a corrupt non-final segment")
	} else if !strings.Contains(err.Error(), "non-final segment") {
		t.Fatalf("error = %v, want non-final segment corruption", err)
	}
}

func TestDuplicateSubmissionIsError(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.JobSubmitted("c1", "", 1, 1, []byte(`{}`))
	s.JobSubmitted("c1", "", 1, 1, []byte(`{}`))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a duplicate submission record")
	} else if !strings.Contains(err.Error(), "duplicate submission") {
		t.Fatalf("error = %v", err)
	}
}

// TestPointCompletedBytes pins the point-completed record body, appended
// from the outcome's canonical bytes, to encoding/json's encoding of the
// record struct recovery decodes; PointCompleted and PointCompletedJSON
// write the same record.
func TestPointCompletedBytes(t *testing.T) {
	cases := []struct {
		name string
		hash string
		out  scenario.Outcome
	}{
		{"counters", "0123456789abcdef", scenario.Outcome{SimEndNS: 558, CtxSwitches: 224,
			Checksums: []uint64{5324659970872171093}, DatesHash: "2:5c8c13fc7da60f1b",
			Counters: map[string]uint64{"words": 50, "blocks": 2, "Shards": 1, "bus_accesses": 1<<64 - 1}}},
		{"checksums", "h1", scenario.Outcome{SimEndNS: 1, Checksums: []uint64{0, 7, 1 << 63, 1<<64 - 1}}},
		{"omitted", "h2", scenario.Outcome{}},
		{"escaped", "h<&>\"3\"", scenario.Outcome{SimEndNS: -5, DatesHash: "<a&b>\u2028caf\u00e9\x01\"",
			Counters: map[string]uint64{"<k>": 1}}},
	}
	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		if err := s.PointCompleted(c.hash, &c.out); err != nil {
			t.Fatal(err)
		}
		if err := s.PointCompletedJSON(c.hash, c.out.AppendJSON(nil)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "00000001.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		want, err := json.Marshal(pointCompletedBody{Hash: c.hash, Outcome: &c.out})
		if err != nil {
			t.Fatal(err)
		}
		for _, method := range []string{"PointCompleted", "PointCompletedJSON"} {
			n := int(binary.LittleEndian.Uint32(data))
			payload := data[headerBytes : headerBytes+n]
			data = data[headerBytes+n:]
			if payload[0] != recPointCompleted || string(payload[1:]) != string(want) {
				t.Errorf("%s, %s: record %q\nwant type %d body %s", c.name, method, payload, recPointCompleted, want)
			}
		}
	}
	if len(data) != 0 {
		t.Errorf("%d bytes past the last record", len(data))
	}
}
