package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// recovered is Recovery plus what Open needs to carry on: the append
// cursor and the footprint of the files the scan saw.
type recovered struct {
	Recovery
	nextSeq uint64
	disk    footprint
}

func isSegmentName(name string) bool {
	return strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log")
}

func isSnapshotName(name string) bool {
	return strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap")
}

func segmentSeqOf(name string) (uint64, bool) {
	if !isSegmentName(name) {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 16, 64)
	return seq, err == nil
}

func snapshotSeqOf(name string) (uint64, bool) {
	if !isSnapshotName(name) {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap"), 16, 64)
	return seq, err == nil
}

// recoverDir reads everything durable in dir: the newest valid snapshot,
// then every intact record at or after its sequence, repairing the final
// segment's torn tail if a crash left one. It returns the recovery and
// the path of the segment Open should continue appending to ("" when a
// fresh segment is needed).
func recoverDir(dir string) (*recovered, string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, "", fmt.Errorf("wal: %w", err)
	}
	rec := &recovered{}
	var segSeqs, snapSeqs []uint64
	for _, e := range entries {
		if seq, ok := segmentSeqOf(e.Name()); ok {
			segSeqs = append(segSeqs, seq)
			if info, err := e.Info(); err == nil {
				rec.disk.segments++
				rec.disk.walBytes += info.Size()
			}
		}
		if seq, ok := snapshotSeqOf(e.Name()); ok {
			snapSeqs = append(snapSeqs, seq)
		}
	}
	sort.Slice(segSeqs, func(i, j int) bool { return segSeqs[i] < segSeqs[j] })
	sort.Slice(snapSeqs, func(i, j int) bool { return snapSeqs[i] > snapSeqs[j] }) // newest first

	// Newest snapshot that passes its CRC wins; an unreadable newest one
	// (crash between rename and old-snapshot delete cannot cause this, but
	// a torn disk can) falls back to the predecessor rather than failing
	// the whole recovery.
	for _, seq := range snapSeqs {
		path := filepath.Join(dir, fmt.Sprintf("snap-%016x.snap", seq))
		state, err := readSnapshot(path, seq)
		if err == nil {
			rec.Snapshot = state
			rec.SnapshotSeq = seq
			if info, err := os.Stat(path); err == nil {
				rec.disk.snapBytes, rec.disk.snapTime = info.Size(), info.ModTime()
			}
			break
		}
	}
	rec.nextSeq = rec.SnapshotSeq

	// Scan segments oldest-first. Segments entirely covered by the
	// snapshot are skipped (they are deleted at the next Snapshot call);
	// only the final segment may legitimately end mid-frame.
	var lastSeg string
	for i, seq := range segSeqs {
		path := filepath.Join(dir, fmt.Sprintf("wal-%016x.log", seq))
		final := i == len(segSeqs)-1
		if final {
			lastSeg = path
		}
		if !final && segSeqs[i+1] <= rec.SnapshotSeq {
			continue // every record in here predates the snapshot
		}
		if err := scanSegment(path, final, rec); err != nil {
			return nil, "", err
		}
	}
	return rec, lastSeg, nil
}

// scanSegment appends the segment's intact records with Seq >= the
// snapshot sequence to rec. For the final segment a bad frame is a torn
// tail: the file is truncated to the last intact record and the repair
// reported. For earlier segments a bad frame is ErrCorrupt.
func scanSegment(path string, final bool, rec *recovered) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if len(data) < len(segMagic) || !bytes.Equal(data[:len(segMagic)], []byte(segMagic)) {
		if final && len(data) < len(segMagic) {
			// Crash while writing the header of a fresh segment: nothing in
			// it could be durable, drop the file content entirely.
			return repairTail(path, data, 0, rec)
		}
		return fmt.Errorf("%w: %s: bad segment header", ErrCorrupt, filepath.Base(path))
	}
	off := len(segMagic)
	for off < len(data) {
		payload, frameEnd, ok := parseFrame(data, off)
		if !ok {
			if !final {
				return fmt.Errorf("%w: %s: unreadable record at offset %d", ErrCorrupt, filepath.Base(path), off)
			}
			return repairTail(path, data, off, rec)
		}
		seq := binary.LittleEndian.Uint64(payload[0:8])
		typLen := int(binary.LittleEndian.Uint16(payload[8:10]))
		if 10+typLen > len(payload) {
			if !final {
				return fmt.Errorf("%w: %s: bad type length at offset %d", ErrCorrupt, filepath.Base(path), off)
			}
			return repairTail(path, data, off, rec)
		}
		if seq < rec.SnapshotSeq {
			// A record the snapshot already covers, in a segment that
			// straddles the snapshot point (rotation crashed before the new
			// segment was created). Skip it.
			off = frameEnd
			continue
		}
		// Sequence numbers must advance by exactly one from the snapshot
		// point onward; a gap or repeat is structural corruption, not a
		// torn tail.
		if seq != rec.nextSeq {
			return fmt.Errorf("%w: %s: record sequence %d at offset %d, want %d", ErrCorrupt,
				filepath.Base(path), seq, off, rec.nextSeq)
		}
		r := Record{
			Seq:  seq,
			Type: string(payload[10 : 10+typLen]),
			Data: append([]byte(nil), payload[10+typLen:]...),
		}
		rec.Records = append(rec.Records, r)
		rec.nextSeq = seq + 1
		off = frameEnd
	}
	return nil
}

// parseFrame decodes one record frame at off, returning the payload and
// the offset just past the frame. ok is false for a truncated frame, a
// length outside sane bounds, or a CRC mismatch.
func parseFrame(data []byte, off int) (payload []byte, frameEnd int, ok bool) {
	if off+8 > len(data) {
		return nil, 0, false
	}
	payloadLen := int(binary.LittleEndian.Uint32(data[off : off+4]))
	if payloadLen < 10 || payloadLen > maxPayload || off+8+payloadLen > len(data) {
		return nil, 0, false
	}
	crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
	payload = data[off+8 : off+8+payloadLen]
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, 0, false
	}
	return payload, off + 8 + payloadLen, true
}

// repairTail truncates path at off — the first byte of the unreadable
// frame — so the segment ends on the last intact record.
func repairTail(path string, data []byte, off int, rec *recovered) error {
	rec.DroppedBytes += int64(len(data) - off)
	rec.Repaired = true
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: repairing torn tail: %w", err)
	}
	defer f.Close()
	if off < len(segMagic) {
		// The header itself was torn; rewrite it so the segment stays
		// appendable.
		if err := f.Truncate(0); err != nil {
			return fmt.Errorf("wal: repairing torn tail: %w", err)
		}
		if _, err := f.WriteAt([]byte(segMagic), 0); err != nil {
			return fmt.Errorf("wal: repairing torn tail: %w", err)
		}
		off = len(segMagic)
	} else if err := f.Truncate(int64(off)); err != nil {
		return fmt.Errorf("wal: repairing torn tail: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: repairing torn tail: %w", err)
	}
	rec.disk.walBytes += int64(off - len(data))
	return nil
}

// readSnapshot loads and verifies one snapshot file.
func readSnapshot(path string, wantSeq uint64) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	hdrLen := len(snapMagic) + 8 + 4 + 4
	if len(data) < hdrLen || !bytes.Equal(data[:len(snapMagic)], []byte(snapMagic)) {
		return nil, fmt.Errorf("%w: %s: bad snapshot header", ErrCorrupt, filepath.Base(path))
	}
	seq := binary.LittleEndian.Uint64(data[len(snapMagic):])
	crc := binary.LittleEndian.Uint32(data[len(snapMagic)+8:])
	size := int(binary.LittleEndian.Uint32(data[len(snapMagic)+12:]))
	if seq != wantSeq || size != len(data)-hdrLen {
		return nil, fmt.Errorf("%w: %s: snapshot header mismatch", ErrCorrupt, filepath.Base(path))
	}
	payload := data[hdrLen:]
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, fmt.Errorf("%w: %s: snapshot checksum mismatch", ErrCorrupt, filepath.Base(path))
	}
	return payload, nil
}

// writeSnapshot writes a snapshot file atomically (tmp + rename + dir
// sync) and returns its size and modification time as written — a rename
// changes neither.
func writeSnapshot(dir string, seq uint64, state []byte, noSync bool) (os.FileInfo, error) {
	final := filepath.Join(dir, fmt.Sprintf("snap-%016x.snap", seq))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, len(snapMagic)+16)
	copy(hdr, snapMagic)
	binary.LittleEndian.PutUint64(hdr[len(snapMagic):], seq)
	binary.LittleEndian.PutUint32(hdr[len(snapMagic)+8:], crc32.Checksum(state, castagnoli))
	binary.LittleEndian.PutUint32(hdr[len(snapMagic)+12:], uint32(len(state)))
	if _, err := f.Write(hdr); err == nil {
		_, err = f.Write(state)
	}
	if err == nil && !noSync {
		err = f.Sync()
	}
	var info os.FileInfo
	if err == nil {
		info, err = f.Stat()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, final)
	}
	if err != nil {
		os.Remove(tmp)
		return nil, err
	}
	if !noSync {
		syncDir(dir)
	}
	return info, nil
}

// syncDir fsyncs a directory so renames and unlinks inside it are
// durable; errors are ignored (some filesystems reject directory fsync).
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	defer d.Close()
	_ = d.Sync()
}
