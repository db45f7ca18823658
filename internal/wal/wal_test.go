package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// openT opens a log in dir, failing the test on error.
func openT(t *testing.T, dir string, opts Options) (*Log, *Recovery) {
	t.Helper()
	l, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l, rec
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rec := openT(t, dir, Options{})
	if rec.Snapshot != nil || len(rec.Records) != 0 || rec.Repaired {
		t.Fatalf("fresh dir recovery = %+v, want empty", rec)
	}
	want := []Record{
		{Seq: 0, Type: "alpha", Data: []byte(`{"n":1}`)},
		{Seq: 1, Type: "beta", Data: nil},
		{Seq: 2, Type: "gamma", Data: bytes.Repeat([]byte{0xAB}, 4096)},
	}
	for _, r := range want {
		seq, err := l.Append(r.Type, r.Data)
		if err != nil {
			t.Fatalf("Append(%s): %v", r.Type, err)
		}
		if seq != r.Seq {
			t.Fatalf("Append(%s) seq = %d, want %d", r.Type, seq, r.Seq)
		}
	}
	if got := l.Stats().NextSeq; got != 3 {
		t.Fatalf("NextSeq = %d, want 3", got)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, rec2 := openT(t, dir, Options{})
	defer l2.Close()
	if rec2.Repaired || rec2.DroppedBytes != 0 {
		t.Fatalf("clean reopen reported repair: %+v", rec2)
	}
	if len(rec2.Records) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(rec2.Records), len(want))
	}
	for i, r := range rec2.Records {
		if r.Seq != want[i].Seq || r.Type != want[i].Type || !bytes.Equal(r.Data, want[i].Data) {
			t.Errorf("record %d = %+v, want %+v", i, r, want[i])
		}
	}
	if seq, err := l2.Append("delta", []byte("x")); err != nil || seq != 3 {
		t.Fatalf("append after reopen = (%d, %v), want (3, nil)", seq, err)
	}
}

func TestAppendJSONAndLimits(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	defer l.Close()
	if _, err := l.AppendJSON("obj", map[string]int{"a": 1}); err != nil {
		t.Fatalf("AppendJSON: %v", err)
	}
	if _, err := l.AppendJSON("bad", func() {}); err == nil {
		t.Fatal("AppendJSON(func) succeeded, want marshal error")
	}
	if _, err := l.Append("huge", make([]byte, maxPayload)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized append err = %v, want ErrTooLarge", err)
	}
	if _, err := l.Append(strings.Repeat("t", 0x10000), nil); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized type err = %v, want ErrTooLarge", err)
	}
	l.Close()
	if _, err := l.Append("late", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close err = %v, want ErrClosed", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("sync after close err = %v, want ErrClosed", err)
	}
	if err := l.Snapshot(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("snapshot after close err = %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestAppendBatch(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})

	// A batch interleaved with single appends lands in exactly the order
	// written, with contiguous sequence numbers.
	if _, err := l.Append("single", []byte("a")); err != nil {
		t.Fatal(err)
	}
	batch := []BatchEntry{
		{Type: "batch.0", Data: []byte(`{"n":0}`)},
		{Type: "batch.1", Data: nil},
		{Type: "batch.2", Data: bytes.Repeat([]byte{0xCD}, 2048)},
	}
	first, err := l.AppendBatch(batch)
	if err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	if first != 1 {
		t.Fatalf("AppendBatch first seq = %d, want 1", first)
	}
	if _, err := l.Append("single", []byte("b")); err != nil {
		t.Fatal(err)
	}

	// An empty batch is a no-op that reports the next sequence number.
	if seq, err := l.AppendBatch(nil); err != nil || seq != 5 {
		t.Fatalf("AppendBatch(nil) = (%d, %v), want (5, nil)", seq, err)
	}

	// A batch with any invalid entry writes nothing and burns no sequence
	// numbers — validation runs before the first frame is built.
	bad := []BatchEntry{
		{Type: "ok", Data: []byte("x")},
		{Type: strings.Repeat("t", 0x10000), Data: nil},
	}
	if _, err := l.AppendBatch(bad); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("invalid batch err = %v, want ErrTooLarge", err)
	}
	if got := l.Stats().NextSeq; got != 5 {
		t.Fatalf("NextSeq after rejected batch = %d, want 5", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(batch); !errors.Is(err, ErrClosed) {
		t.Fatalf("batch after close err = %v, want ErrClosed", err)
	}

	l2, rec := openT(t, dir, Options{})
	defer l2.Close()
	wantTypes := []string{"single", "batch.0", "batch.1", "batch.2", "single"}
	if len(rec.Records) != len(wantTypes) {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), len(wantTypes))
	}
	for i, r := range rec.Records {
		if r.Seq != uint64(i) || r.Type != wantTypes[i] {
			t.Errorf("record %d = (seq %d, %s), want (seq %d, %s)", i, r.Seq, r.Type, i, wantTypes[i])
		}
	}
	if !bytes.Equal(rec.Records[3].Data, batch[2].Data) {
		t.Error("batch payload did not round-trip")
	}
}

// TestAppendBatchTornTail crashes mid-batch: each record in a batch is a
// self-framed WAL entry, so truncating inside the batch's last frame must
// recover the exact record prefix, same as a torn single append.
func TestAppendBatchTornTail(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{SyncEvery: 1})
	batch := []BatchEntry{
		{Type: "keep.0", Data: []byte("aaaa")},
		{Type: "keep.1", Data: []byte("bbbb")},
		{Type: "torn", Data: bytes.Repeat([]byte{0xEE}, 512)},
	}
	if _, err := l.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := onlySegment(t, dir)
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-100); err != nil {
		t.Fatal(err)
	}

	l2, rec := openT(t, dir, Options{})
	defer l2.Close()
	if !rec.Repaired || rec.DroppedBytes == 0 {
		t.Fatalf("torn batch tail not repaired: %+v", rec)
	}
	if len(rec.Records) != 2 {
		t.Fatalf("recovered %d records, want the 2 intact batch frames", len(rec.Records))
	}
	for i, r := range rec.Records {
		if want := fmt.Sprintf("keep.%d", i); r.Type != want {
			t.Errorf("record %d type = %s, want %s", i, r.Type, want)
		}
	}
}

func TestSnapshotRotatesAndTruncates(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{SyncEvery: 1})
	for i := 0; i < 10; i++ {
		if _, err := l.Append("pre", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	state := []byte(`{"deployments":10}`)
	if err := l.Snapshot(state); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	// Records before the snapshot are gone from disk; only the fresh
	// segment and one snapshot file remain.
	st := l.Stats()
	if st.Segments != 1 {
		t.Fatalf("segments after snapshot = %d, want 1", st.Segments)
	}
	if st.SnapshotSeq != 10 || st.NextSeq != 10 {
		t.Fatalf("stats = %+v, want snapshot_seq=10 next_seq=10", st)
	}
	if st.SnapshotBytes == 0 || st.SnapshotTime.IsZero() {
		t.Fatalf("stats missing snapshot footprint: %+v", st)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append("post", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Re-snapshot with no rotation needed after, then once more after
	// appends, exercising both rotation paths.
	if err := l.Snapshot([]byte("s2")); err != nil {
		t.Fatalf("second snapshot: %v", err)
	}
	if err := l.Snapshot([]byte("s3")); err != nil {
		t.Fatalf("third snapshot (no appends since): %v", err)
	}
	if _, err := l.Append("tail", []byte("z")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec := recoverOnly(t, dir)
	if string(rec.Snapshot) != "s3" || rec.SnapshotSeq != 13 {
		t.Fatalf("recovered snapshot = (%q, %d), want (s3, 13)", rec.Snapshot, rec.SnapshotSeq)
	}
	if len(rec.Records) != 1 || rec.Records[0].Seq != 13 || rec.Records[0].Type != "tail" {
		t.Fatalf("recovered records = %+v, want one tail record at seq 13", rec.Records)
	}
}

// recoverOnly opens and immediately closes the log, returning what
// recovery found.
func recoverOnly(t *testing.T, dir string) (Stats, *Recovery) {
	t.Helper()
	l, rec := openT(t, dir, Options{})
	st := l.Stats()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return st, rec
}

func TestTornTailRepair(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{SyncEvery: 1})
	for i := 0; i < 5; i++ {
		if _, err := l.Append("rec", bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := onlySegment(t, dir)
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Chop mid-record: the last record becomes a torn tail.
	if err := os.Truncate(seg, info.Size()-30); err != nil {
		t.Fatal(err)
	}
	_, rec := recoverOnly(t, dir)
	if !rec.Repaired || rec.DroppedBytes == 0 {
		t.Fatalf("recovery = %+v, want a reported repair", rec)
	}
	if len(rec.Records) != 4 {
		t.Fatalf("recovered %d records after torn tail, want 4", len(rec.Records))
	}
	// The repair is durable: a second open is clean.
	_, rec2 := recoverOnly(t, dir)
	if rec2.Repaired || rec2.DroppedBytes != 0 || len(rec2.Records) != 4 {
		t.Fatalf("post-repair recovery = %+v, want clean with 4 records", rec2)
	}
}

func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	l.Append("a", nil)
	if err := l.Snapshot([]byte("good")); err != nil {
		t.Fatal(err)
	}
	l.Append("b", nil)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Forge a newer snapshot with a bad checksum: recovery must fall back
	// to the older valid one instead of failing or trusting garbage.
	bad := filepath.Join(dir, fmt.Sprintf("snap-%016x.snap", uint64(2)))
	if err := os.WriteFile(bad, []byte("XCBCSNP\x01garbagegarbagegarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec := recoverOnly(t, dir)
	if string(rec.Snapshot) != "good" || rec.SnapshotSeq != 1 {
		t.Fatalf("recovery = (%q, %d), want fallback to (good, 1)", rec.Snapshot, rec.SnapshotSeq)
	}
	if len(rec.Records) != 1 || rec.Records[0].Type != "b" {
		t.Fatalf("records = %+v, want just b", rec.Records)
	}
}

func TestMidLogCorruptionFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{SyncEvery: 1})
	for i := 0; i < 4; i++ {
		l.Append("rec", bytes.Repeat([]byte("x"), 200))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := onlySegment(t, dir)
	// Rename the single segment so it is no longer the final one, then add
	// an empty later segment: corruption in a non-final segment must not
	// be silently repaired.
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	later := filepath.Join(dir, fmt.Sprintf("wal-%016x.log", uint64(99)))
	if err := os.WriteFile(later, []byte(segMagic), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with mid-log corruption err = %v, want ErrCorrupt", err)
	}
}

func TestSequenceGapFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{SyncEvery: 1})
	l.Append("a", nil)
	l.Append("b", nil)
	l.Append("c", nil)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Surgically remove the middle record: frames are contiguous, so cut
	// its bytes out. The CRCs of a and c still pass but the sequence jumps.
	seg := onlySegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	frame := (len(data) - len(segMagic)) / 3
	cut := append(append([]byte{}, data[:len(segMagic)+frame]...), data[len(segMagic)+2*frame:]...)
	if err := os.WriteFile(seg, cut, 0o644); err != nil {
		t.Fatal(err)
	}
	// The gap hits in the final segment: the scan treats the out-of-order
	// record as structural corruption, not a torn tail.
	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with sequence gap err = %v, want ErrCorrupt", err)
	}
}

func TestRecoverStraddlingSegment(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{SyncEvery: 1})
	l.Append("a", nil)
	l.Append("b", nil)
	l.Append("c", nil)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash after the snapshot file landed but before the
	// segment rotation: the snapshot covers seqs < 2 while the only
	// segment still holds 0..2. Recovery must skip the covered records.
	if _, err := writeSnapshot(dir, 2, []byte("mid"), false); err != nil {
		t.Fatal(err)
	}
	_, rec := recoverOnly(t, dir)
	if rec.SnapshotSeq != 2 || string(rec.Snapshot) != "mid" {
		t.Fatalf("snapshot = (%q, %d), want (mid, 2)", rec.Snapshot, rec.SnapshotSeq)
	}
	if len(rec.Records) != 1 || rec.Records[0].Seq != 2 || rec.Records[0].Type != "c" {
		t.Fatalf("records = %+v, want just c at seq 2", rec.Records)
	}
}

func TestRecoverSkipsFullyCoveredSegment(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{SyncEvery: 1})
	l.Append("a", nil)
	l.Append("b", nil)
	old, err := os.ReadFile(onlySegment(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot([]byte("s")); err != nil {
		t.Fatal(err)
	}
	l.Append("c", nil)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Resurrect the pre-snapshot segment that cleanup removed (as if the
	// unlink never hit disk): recovery must skip it entirely.
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("wal-%016x.log", uint64(0))), old, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec := recoverOnly(t, dir)
	if string(rec.Snapshot) != "s" || rec.SnapshotSeq != 2 {
		t.Fatalf("snapshot = (%q, %d), want (s, 2)", rec.Snapshot, rec.SnapshotSeq)
	}
	if len(rec.Records) != 1 || rec.Records[0].Seq != 2 || rec.Records[0].Type != "c" {
		t.Fatalf("records = %+v, want just c at seq 2", rec.Records)
	}
}

func TestTornHeaderOfFreshSegment(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{SyncEvery: 1})
	l.Append("a", nil)
	if err := l.Snapshot([]byte("s")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash while the freshly rotated segment's header was being written:
	// nothing in it could be durable, so recovery rewrites the header and
	// carries on from the snapshot.
	if err := os.Truncate(onlySegment(t, dir), 3); err != nil {
		t.Fatal(err)
	}
	_, rec := recoverOnly(t, dir)
	if !rec.Repaired || rec.DroppedBytes != 3 {
		t.Fatalf("recovery = %+v, want a 3-byte repair", rec)
	}
	if string(rec.Snapshot) != "s" || len(rec.Records) != 0 {
		t.Fatalf("recovery = (%q, %d records), want (s, 0)", rec.Snapshot, len(rec.Records))
	}
	l2, rec2 := openT(t, dir, Options{})
	defer l2.Close()
	if rec2.Repaired {
		t.Fatalf("repair was not durable: %+v", rec2)
	}
	if seq, err := l2.Append("after", nil); err != nil || seq != 1 {
		t.Fatalf("append after header repair = (%d, %v), want (1, nil)", seq, err)
	}
}

func TestBadSegmentHeader(t *testing.T) {
	dir := t.TempDir()
	junk := filepath.Join(dir, fmt.Sprintf("wal-%016x.log", uint64(0)))
	if err := os.WriteFile(junk, []byte("NOTMAGIC"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Alone (final): a full-length header that is simply wrong is disk
	// rot, not a torn write.
	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with bad final header err = %v, want ErrCorrupt", err)
	}
	// Non-final: same verdict.
	later := filepath.Join(dir, fmt.Sprintf("wal-%016x.log", uint64(5)))
	if err := os.WriteFile(later, []byte(segMagic), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with bad non-final header err = %v, want ErrCorrupt", err)
	}
}

func TestFsyncBatching(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{SyncEvery: 4})
	defer l.Close()
	for i := 0; i < 3; i++ {
		l.Append("r", nil)
	}
	l.mu.Lock()
	pending := l.pending
	l.mu.Unlock()
	if pending != 3 {
		t.Fatalf("pending after 3 appends = %d, want 3 (batch of 4)", pending)
	}
	l.Append("r", nil) // 4th append crosses the threshold
	l.mu.Lock()
	pending = l.pending
	l.mu.Unlock()
	if pending != 0 {
		t.Fatalf("pending after batch boundary = %d, want 0", pending)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("explicit Sync: %v", err)
	}
}

// onlySegment returns the path of the single wal segment in dir.
func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if isSegmentName(e.Name()) {
			segs = append(segs, filepath.Join(dir, e.Name()))
		}
	}
	if len(segs) != 1 {
		t.Fatalf("found %d segments, want 1: %v", len(segs), segs)
	}
	return segs[0]
}

// benchWALDir returns a directory for append benchmarks, preferring tmpfs
// (/dev/shm) so the numbers measure framing and syscall cost rather than
// disk writeback — exactly what the NoSync benchmarks are for. Long runs
// at high b.N otherwise push gigabytes through the page cache and the
// kernel flusher's stalls dominate, making the results swing 3x run to run.
// benchLog is an append-benchmark fixture: a NoSync log in tmpfs
// (/dev/shm) when available, so the numbers measure framing and syscall
// cost rather than disk writeback — exactly what the NoSync benchmarks are
// for. Long runs at high b.N otherwise push gigabytes through the page
// cache and the kernel flusher's stalls dominate, swinging results 3x run
// to run. reset() swaps in a fresh log and deletes the old directory
// (call it off the timer) so accumulated frames never exceed one
// directory's worth.
type benchLog struct {
	b   *testing.B
	dir string
	l   *Log
}

func newBenchLog(b *testing.B) *benchLog {
	bl := &benchLog{b: b}
	bl.open()
	b.Cleanup(bl.discard)
	return bl
}

func (bl *benchLog) open() {
	bl.b.Helper()
	bl.dir = ""
	if st, err := os.Stat("/dev/shm"); err == nil && st.IsDir() {
		if dir, err := os.MkdirTemp("/dev/shm", "walbench-"); err == nil {
			bl.dir = dir
		}
	}
	if bl.dir == "" {
		bl.dir = bl.b.TempDir()
	}
	l, _, err := Open(bl.dir, Options{NoSync: true})
	if err != nil {
		bl.b.Fatal(err)
	}
	bl.l = l
}

func (bl *benchLog) discard() {
	if bl.l != nil {
		bl.l.Close()
		bl.l = nil
	}
	if bl.dir != "" {
		os.RemoveAll(bl.dir)
		bl.dir = ""
	}
}

func (bl *benchLog) reset() {
	bl.discard()
	bl.open()
}

// benchResetEvery bounds how many records accumulate in one log before the
// benchmark swaps in a fresh one (off the timer): ~18MB of frames, large
// enough that the swap is invisible in the per-record cost, small enough
// that the backing directory stays at page-cache scale.
const benchResetEvery = 1 << 16

func BenchmarkWALAppend(b *testing.B) {
	bl := newBenchLog(b)
	payload := bytes.Repeat([]byte("x"), 256)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	written := 0
	for i := 0; i < b.N; i++ {
		if written >= benchResetEvery {
			b.StopTimer()
			bl.reset()
			written = 0
			b.StartTimer()
		}
		if _, err := bl.l.Append("bench.record", payload); err != nil {
			b.Fatal(err)
		}
		written++
	}
}

// BenchmarkWALAppendBatch64 writes the same records as BenchmarkWALAppend
// but as 64-record group commits — the store's coalescing shape — so the
// per-record cost of framing plus one write syscall per batch is directly
// comparable to one write per record. b.N counts records, not batches.
func BenchmarkWALAppendBatch64(b *testing.B) {
	bl := newBenchLog(b)
	payload := bytes.Repeat([]byte("x"), 256)
	batch := make([]BatchEntry, 64)
	for i := range batch {
		batch[i] = BatchEntry{Type: "bench.record", Data: payload}
	}
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	written := 0
	for i := 0; i < b.N; i += len(batch) {
		if written >= benchResetEvery {
			b.StopTimer()
			bl.reset()
			written = 0
			b.StartTimer()
		}
		if _, err := bl.l.AppendBatch(batch); err != nil {
			b.Fatal(err)
		}
		written += len(batch)
	}
}
