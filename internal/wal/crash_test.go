package wal

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"
)

// TestCrashInjection is the crash-injection harness: build a log under a
// seeded random workload, "kill" it by copying the directory and mangling
// the final segment — truncating at a randomized offset (a torn write) or
// flipping a random byte (a torn sector) — then recover and assert the
// durability invariants:
//
//  1. recovery never errors and never returns corrupt data: every
//     recovered record is byte-identical to what was appended;
//  2. the recovered records are an exact prefix of the appended sequence,
//     cut precisely at the damaged frame;
//  3. a snapshot taken before the crash is always recovered intact;
//  4. the repair is durable: reopening is clean and appends continue.
//
// 64 seeds run even in -short mode; each seed is a distinct combination
// of record count, sizes, sync batching, snapshot point, and kill point.
func TestCrashInjection(t *testing.T) {
	for seed := 0; seed < 64; seed++ {
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			crashOne(t, uint64(seed))
		})
	}
}

func crashOne(t *testing.T, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	live := t.TempDir()
	l, _, err := Open(live, Options{SyncEvery: 1 + rng.IntN(8)})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	types := []string{"deployment.created", "cluster.op", "scenario.progress", "x"}
	n := 10 + rng.IntN(40)
	snapAt := -1 // index before which a snapshot was taken
	var snapState []byte
	var snapSeq uint64
	var appended []Record // records after the snapshot (all of them if none)
	var ends []int        // cumulative end offset of each post-snapshot frame in the final segment
	off := len(segMagic)
	for i := 0; i < n; i++ {
		if snapAt < 0 && i > 0 && rng.IntN(n) == 0 {
			snapState = fmt.Appendf(nil, `{"covered":%d}`, i)
			if err := l.Snapshot(snapState); err != nil {
				t.Fatalf("snapshot before record %d: %v", i, err)
			}
			snapAt, snapSeq = i, l.Stats().NextSeq
			appended, ends = nil, nil
			off = len(segMagic)
		}
		typ := types[rng.IntN(len(types))]
		data := make([]byte, rng.IntN(300))
		for j := range data {
			data[j] = byte(rng.IntN(256))
		}
		seq, err := l.Append(typ, data)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		appended = append(appended, Record{Seq: seq, Type: typ, Data: data})
		off += 8 + 10 + len(typ) + len(data)
		ends = append(ends, off)
	}

	// Kill: copy the directory as the filesystem would survive a crash,
	// then mangle the copy's final segment.
	crash := t.TempDir()
	copyDir(t, live, crash)
	seg := finalSegment(t, crash)
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	size := int(info.Size())
	wantRecords := len(appended)
	if rng.IntN(2) == 0 {
		// Torn write: truncate at a random offset, possibly mid-header.
		cut := rng.IntN(size + 1)
		if err := os.Truncate(seg, int64(cut)); err != nil {
			t.Fatal(err)
		}
		wantRecords = framesBefore(ends, cut)
	} else if size > len(segMagic) {
		// Torn sector: flip one byte past the header (header damage is
		// disk rot, which recovery correctly refuses to repair silently).
		// A frame is intact only when every byte of it precedes the flip,
		// i.e. its end offset is <= the flipped offset.
		flip := len(segMagic) + rng.IntN(size-len(segMagic))
		flipByte(t, seg, flip)
		wantRecords = framesBefore(ends, flip)
	}

	l1, rec, err := Open(crash, Options{})
	if err != nil {
		t.Fatalf("recovery after crash: %v", err)
	}
	defer l1.Close()
	if snapAt >= 0 {
		if !bytes.Equal(rec.Snapshot, snapState) || rec.SnapshotSeq != snapSeq {
			t.Fatalf("snapshot = (%q, %d), want (%q, %d)", rec.Snapshot, rec.SnapshotSeq, snapState, snapSeq)
		}
	} else if rec.Snapshot != nil {
		t.Fatalf("recovered a snapshot %q that was never taken", rec.Snapshot)
	}
	if len(rec.Records) != wantRecords {
		t.Fatalf("recovered %d records, want exactly %d (of %d appended)",
			len(rec.Records), wantRecords, len(appended))
	}
	for i, r := range rec.Records {
		want := appended[i]
		if r.Seq != want.Seq || r.Type != want.Type || !bytes.Equal(r.Data, want.Data) {
			t.Fatalf("record %d corrupt: got (%d,%s,%d bytes), want (%d,%s,%d bytes)",
				i, r.Seq, r.Type, len(r.Data), want.Seq, want.Type, len(want.Data))
		}
	}

	// Reopen the crashed log: must succeed (some kill points require no
	// repair at all), and the repaired log keeps working.
	l2, rec2, err := Open(crash, Options{SyncEvery: 1})
	if err != nil {
		t.Fatalf("reopen after repair: %v", err)
	}
	if rec2.Repaired || rec2.DroppedBytes != 0 {
		t.Fatalf("second recovery still repairing: %+v", rec2)
	}
	if len(rec2.Records) != wantRecords {
		t.Fatalf("second recovery has %d records, want %d", len(rec2.Records), wantRecords)
	}
	if _, err := l2.Append("post-crash", []byte("resumed")); err != nil {
		t.Fatalf("append after repair: %v", err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec3, err := Open(crash, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rec3.Records); got != wantRecords+1 {
		t.Fatalf("final recovery has %d records, want %d", got, wantRecords+1)
	}
}

// framesBefore counts how many frames end at or before offset.
func framesBefore(ends []int, offset int) int {
	n := 0
	for _, e := range ends {
		if e <= offset {
			n++
		}
	}
	return n
}

func flipByte(t *testing.T, path string, off int) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], int64(off)); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], int64(off)); err != nil {
		t.Fatal(err)
	}
}

func copyDir(t *testing.T, from, to string) {
	t.Helper()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// finalSegment returns the newest segment in dir.
func finalSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var best string
	var bestSeq uint64
	found := false
	for _, e := range entries {
		if seq, ok := segmentSeqOf(e.Name()); ok && (!found || seq > bestSeq) {
			best, bestSeq, found = filepath.Join(dir, e.Name()), seq, true
		}
	}
	if !found {
		t.Fatal("no wal segments found")
	}
	return best
}
