package wal

import (
	"fmt"
	"os"
	"path/filepath"
)

// Snapshot durably records a full-state snapshot covering every record
// appended so far, then truncates the log: a fresh segment starts at the
// snapshot's sequence number and the segments (and snapshots) it
// supersedes are deleted. Recovery after a Snapshot loads the snapshot
// payload plus only the records appended after it.
//
// The ordering is crash-safe at every step: the current segment is
// synced before the snapshot is written (so the snapshot never claims
// records the log doesn't hold), the snapshot file lands by atomic
// rename, and old files are removed only after the new segment exists. A
// crash anywhere in between leaves either the old snapshot or the new
// one fully intact.
func (l *Log) Snapshot(state []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	seq := l.nextSeq
	info, err := writeSnapshot(l.dir, seq, state, l.opts.NoSync)
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	l.snapSeq = seq
	l.disk.snapBytes, l.disk.snapTime = info.Size(), info.ModTime()
	// Rotate, unless the open segment already starts exactly at the
	// snapshot point (a re-snapshot with no appends in between — the
	// segment is empty and stays current).
	if l.segStart != seq {
		if err := l.f.Close(); err != nil {
			return fmt.Errorf("wal: snapshot: %w", err)
		}
		if err := l.newSegment(); err != nil {
			// Snapshot state is consistent on disk but the log has no open
			// segment; surface the error so the caller can retry or close.
			return fmt.Errorf("wal: snapshot: rotating segment: %w", err)
		}
	}
	l.cleanupLocked()
	return nil
}

// cleanupLocked deletes segments fully covered by the current snapshot
// and snapshots older than it. Every segment except the one open for
// append holds only pre-snapshot records (segment names are first-record
// sequences, and the rotation above started the current segment at the
// snapshot point). Deletion failures are ignored — a stale file costs
// disk space, not correctness, and the next Snapshot retries.
func (l *Log) cleanupLocked() {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if seq, ok := segmentSeqOf(e.Name()); ok && seq != l.segStart {
			info, ierr := e.Info()
			if os.Remove(filepath.Join(l.dir, e.Name())) == nil && ierr == nil {
				l.disk.segments--
				l.disk.walBytes -= info.Size()
			}
		}
		if seq, ok := snapshotSeqOf(e.Name()); ok && seq != l.snapSeq {
			os.Remove(filepath.Join(l.dir, e.Name()))
		}
	}
	if !l.opts.NoSync {
		syncDir(l.dir)
	}
}
