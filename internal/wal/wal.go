// Package wal is the durability substrate: a typed, versioned,
// length-prefixed write-ahead log with CRC-protected records, fsync
// batching, periodic snapshots, and log truncation.
//
// A Log lives in one directory and consists of numbered segment files
// (wal-<firstseq>.log) plus at most a couple of snapshot files
// (snap-<seq>.snap; the older one is only present in the window between
// writing a new snapshot and deleting its predecessor). Records carry a
// monotonically increasing sequence number, a short type tag, and an
// opaque payload; the caller decides what the payloads mean.
//
// On-disk framing (all integers little-endian):
//
//	segment  = magic "XCBCWAL\x01" , record*
//	record   = u32 payloadLen , u32 crc32c(payload) , payload
//	payload  = u64 seq , u16 typeLen , type bytes , data bytes
//
// Durability contract: Append buffers; a record is on disk once Sync
// returns (or once the batching threshold Options.SyncEvery flushed it).
// Open replays the newest valid snapshot plus every intact record after
// it. A torn tail — the partial frame a crash mid-write leaves behind —
// is detected by the length/CRC framing, truncated away, and reported;
// corrupt bytes are never handed back as data. Corruption in the middle
// of the log (disk rot rather than a crash) fails Open loudly with
// ErrCorrupt instead of silently dropping committed records.
package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Sentinel errors; test with errors.Is.
var (
	// ErrCorrupt reports unreadable log state that cannot be explained by
	// a crash mid-append: a bad segment header, out-of-order sequence
	// numbers, or a CRC failure before the final segment's tail.
	ErrCorrupt = errors.New("wal: corrupt log")
	// ErrClosed reports use of a closed log.
	ErrClosed = errors.New("wal: log is closed")
	// ErrTooLarge reports a record payload over the framing limit.
	ErrTooLarge = errors.New("wal: record too large")
)

const (
	segMagic  = "XCBCWAL\x01"
	snapMagic = "XCBCSNP\x01"
	// maxPayload bounds one record (and guards recovery against absurd
	// lengths decoded out of garbage bytes).
	maxPayload = 64 << 20
	// DefaultSyncEvery is the fsync batching threshold: how many appended
	// records may sit in the OS buffer before Append forces a sync.
	DefaultSyncEvery = 32
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options tunes a Log.
type Options struct {
	// SyncEvery batches fsyncs: Append forces one after this many buffered
	// records. 0 selects DefaultSyncEvery; 1 syncs every append.
	SyncEvery int
	// NoSync disables fsync entirely (buffered writes still reach the
	// file). For tests and benchmarks that measure framing cost, not disk.
	NoSync bool
}

func (o Options) withDefaults() Options {
	if o.SyncEvery <= 0 {
		o.SyncEvery = DefaultSyncEvery
	}
	return o
}

// Record is one entry read back from the log.
type Record struct {
	Seq  uint64
	Type string
	Data []byte
}

// Recovery is what Open found on disk: the newest valid snapshot (nil
// when none), every intact record after it in sequence order, and what —
// if anything — had to be repaired.
type Recovery struct {
	// Snapshot is the newest valid snapshot's payload, nil when the log
	// has never snapshotted.
	Snapshot []byte
	// SnapshotSeq is the sequence number the snapshot covers: every
	// record with Seq >= SnapshotSeq happened after it.
	SnapshotSeq uint64
	// Records are the intact records with Seq >= SnapshotSeq, in order.
	Records []Record
	// DroppedBytes counts torn-tail bytes truncated from the final
	// segment (a crash mid-append); 0 on a clean shutdown.
	DroppedBytes int64
	// Repaired reports whether Open rewrote the final segment to remove a
	// torn tail.
	Repaired bool
}

// Stats is a point-in-time summary of the log, served by the control
// plane's persistence status route.
type Stats struct {
	Dir           string    `json:"dir"`
	NextSeq       uint64    `json:"next_seq"`
	SnapshotSeq   uint64    `json:"snapshot_seq"`
	Segments      int       `json:"segments"`
	WALBytes      int64     `json:"wal_bytes"`
	SnapshotBytes int64     `json:"snapshot_bytes"`
	SnapshotTime  time.Time `json:"snapshot_time,omitzero"`
}

// Log is an append-only record log in one directory. All methods are
// safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        *os.File // current segment, opened for append
	buf      *bytes.Buffer
	nextSeq  uint64
	snapSeq  uint64
	segStart uint64 // first sequence of the segment open for append
	pending  int    // appended records not yet fsynced
	closed   bool

	// disk is the footprint Stats reports, kept current by everything that
	// writes, creates or removes a file, so that reading it touches no
	// disk: Open takes it from the recovery scan, appends add what they
	// wrote, Snapshot what it rotated, replaced and cleaned up.
	disk footprint
}

// footprint is the log's size on disk: its segment files, and the snapshot
// recovery would load.
type footprint struct {
	segments  int
	walBytes  int64
	snapBytes int64
	snapTime  time.Time // the snapshot file's modification time
}

// Open opens (creating if needed) the log in dir, repairs any torn tail
// left by a crash, and returns the log positioned for appending plus
// everything recovered from disk.
func Open(dir string, opts Options) (*Log, *Recovery, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	rec, lastSeg, err := recoverDir(dir)
	if err != nil {
		return nil, nil, err
	}
	l := &Log{
		dir:     dir,
		opts:    opts.withDefaults(),
		buf:     &bytes.Buffer{},
		nextSeq: rec.nextSeq,
		snapSeq: rec.SnapshotSeq,
		disk:    rec.disk,
	}
	if lastSeg != "" {
		l.f, err = os.OpenFile(lastSeg, os.O_WRONLY|os.O_APPEND, 0o644)
		if seq, ok := segmentSeqOf(filepath.Base(lastSeg)); ok {
			l.segStart = seq
		}
	} else {
		err = l.newSegment()
	}
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	return l, &rec.Recovery, nil
}

// segmentPath names the segment whose first record is seq.
func (l *Log) segmentPath(seq uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("wal-%016x.log", seq))
}

// newSegment creates a fresh segment starting at l.nextSeq. Caller holds
// l.mu (or is still constructing the log).
func (l *Log) newSegment() error {
	f, err := os.OpenFile(l.segmentPath(l.nextSeq), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return err
	}
	if !l.opts.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	l.f = f
	l.segStart = l.nextSeq
	l.disk.segments++
	l.disk.walBytes += int64(len(segMagic))
	return nil
}

// Append writes one typed record and returns its sequence number: a
// one-entry AppendBatch, so its bytes on disk are exactly the frame a batch
// writes for the same record. The record is durable once Sync returns (or
// after the SyncEvery batching threshold forces a flush).
func (l *Log) Append(typ string, data []byte) (uint64, error) {
	return l.AppendBatch([]BatchEntry{{Type: typ, Data: data}})
}

// BatchEntry is one record of an AppendBatch group commit.
type BatchEntry struct {
	Type string
	Data []byte
}

// AppendBatch writes typed records as one group commit, and is the log's
// only framing path: every record gets its own length/CRC frame in a
// single buffer, the buffer goes out in one file write, and the records
// count against the fsync batching threshold together, amortizing frame
// and syscall cost over the group. Records receive consecutive sequence
// numbers; the first is returned. The durability contract is Append's —
// the group is on disk once Sync returns or once SyncEvery forces a flush
// — and crash recovery sees exactly the prefix of records whose bytes
// made it to disk. An entry over the framing limits fails the whole batch
// before anything is written.
func (l *Log) AppendBatch(entries []BatchEntry) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if len(entries) == 0 {
		return l.nextSeq, nil
	}
	first := l.nextSeq
	l.buf.Reset()
	for i, e := range entries {
		if len(e.Type) > 0xFFFF {
			return 0, fmt.Errorf("%w: type tag %d bytes", ErrTooLarge, len(e.Type))
		}
		payloadLen := 8 + 2 + len(e.Type) + len(e.Data)
		if payloadLen > maxPayload {
			return 0, fmt.Errorf("%w: payload %d bytes (max %d)", ErrTooLarge, payloadLen, maxPayload)
		}
		start := l.buf.Len()
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(payloadLen))
		l.buf.Write(hdr[0:4])
		l.buf.Write(hdr[4:8]) // CRC placeholder, patched below
		var p [10]byte
		binary.LittleEndian.PutUint64(p[0:8], first+uint64(i))
		binary.LittleEndian.PutUint16(p[8:10], uint16(len(e.Type)))
		l.buf.Write(p[:])
		l.buf.WriteString(e.Type)
		l.buf.Write(e.Data)
		frame := l.buf.Bytes()[start:]
		binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(frame[8:], castagnoli))
	}
	n, err := l.f.Write(l.buf.Bytes())
	l.disk.walBytes += int64(n)
	if err != nil {
		// The write may have landed partially; recovery's torn-tail repair
		// handles that exactly as it does for any torn frame.
		return 0, fmt.Errorf("wal: %w", err)
	}
	l.nextSeq += uint64(len(entries))
	l.pending += len(entries)
	if l.pending >= l.opts.SyncEvery {
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	}
	return first, nil
}

// AppendJSON marshals v and appends it under typ.
func (l *Log) AppendJSON(typ string, v any) (uint64, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return 0, fmt.Errorf("wal: marshal %s: %w", typ, err)
	}
	return l.Append(typ, data)
}

// Sync forces every appended record to disk.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.pending == 0 {
		return nil
	}
	if !l.opts.NoSync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
	}
	l.pending = 0
	return nil
}

// Stats reports the log's on-disk footprint from the figures the log keeps
// as it writes; it reads no file and no directory, so a status poll never
// holds the append lock across disk I/O. A file some other process adds to
// or removes from the directory is seen at the next Open.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Dir: l.dir, NextSeq: l.nextSeq, SnapshotSeq: l.snapSeq,
		Segments: l.disk.segments, WALBytes: l.disk.walBytes,
		SnapshotBytes: l.disk.snapBytes, SnapshotTime: l.disk.snapTime,
	}
}

// Close flushes, syncs, and closes the log. The log cannot be used
// afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	err := l.syncLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.closed = true
	return err
}
