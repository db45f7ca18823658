package wal

import (
	"math/rand/v2"
	"os"
	"testing"
)

// scanStats is Stats as it was computed before the log kept its own
// footprint: one ReadDir and one stat per file. It is the reference the
// kept figures are compared against.
func scanStats(t *testing.T, l *Log) Stats {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{Dir: l.dir, NextSeq: l.nextSeq, SnapshotSeq: l.snapSeq}
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			continue
		}
		switch {
		case isSegmentName(e.Name()):
			st.Segments++
			st.WALBytes += info.Size()
		case isSnapshotName(e.Name()):
			if seq, ok := snapshotSeqOf(e.Name()); ok && seq == l.snapSeq {
				st.SnapshotBytes = info.Size()
				st.SnapshotTime = info.ModTime()
			}
		}
	}
	return st
}

// TestStatsMatchesDirectoryScan drives seeded sequences of appends, batch
// appends, snapshots, syncs, clean reopens and crashes that tear the tail
// (mid-record and mid-header), and after every step compares the footprint
// the log keeps with a scan of its directory.
func TestStatsMatchesDirectoryScan(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 23))
		dir := t.TempDir()
		l, _ := openT(t, dir, Options{SyncEvery: 1 + rng.IntN(8)})
		check := func(step int, what string) {
			t.Helper()
			if got, want := l.Stats(), scanStats(t, l); got != want {
				t.Fatalf("seed %d step %d (%s):\n kept %+v\n scan %+v", seed, step, what, got, want)
			}
		}
		check(0, "open")
		for step := 1; step <= 120; step++ {
			var what string
			var err error
			switch k := rng.IntN(20); {
			case k < 9:
				what = "append"
				_, err = l.Append("rec", make([]byte, rng.IntN(300)))
			case k < 13:
				what = "batch"
				batch := make([]BatchEntry, 1+rng.IntN(6))
				for i := range batch {
					batch[i] = BatchEntry{Type: "b", Data: make([]byte, rng.IntN(200))}
				}
				_, err = l.AppendBatch(batch)
			case k < 15:
				what = "sync"
				err = l.Sync()
			case k < 17:
				// Consecutive snapshots exercise the no-rotation path.
				what = "snapshot"
				err = l.Snapshot(make([]byte, rng.IntN(500)))
			case k < 18:
				what = "reopen"
				if err = l.Close(); err == nil {
					l, _ = openT(t, dir, Options{SyncEvery: 1 + rng.IntN(8)})
				}
			default:
				// A crash mid-write: chop up to 40 bytes off the final
				// segment, into its last record or into its header.
				what = "torn tail"
				if err = l.Close(); err != nil {
					break
				}
				seg := finalSegment(t, dir)
				info, serr := os.Stat(seg)
				if serr != nil {
					t.Fatal(serr)
				}
				if terr := os.Truncate(seg, max(info.Size()-int64(1+rng.IntN(40)), 0)); terr != nil {
					t.Fatal(terr)
				}
				l, _ = openT(t, dir, Options{SyncEvery: 1 + rng.IntN(8)})
			}
			if err != nil {
				t.Fatalf("seed %d step %d (%s): %v", seed, step, what, err)
			}
			check(step, what)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStatsReadsNoDisk is the regression test for GET /api/v1/store
// stalling writers: Stats used to hold the append lock across a ReadDir and
// a stat per file. With the directory renamed away a scan finds nothing;
// the kept figures are still right, and appends through the open segment
// still land in them.
func TestStatsReadsNoDisk(t *testing.T) {
	dir := t.TempDir() + "/wal"
	l, _ := openT(t, dir, Options{})
	for i := range 40 {
		if _, err := l.Append("rec", make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
		if i == 20 {
			if err := l.Snapshot([]byte("state")); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := scanStats(t, l)
	if want.Segments != 1 || want.SnapshotBytes == 0 || want.WALBytes <= int64(len(segMagic)) {
		t.Fatalf("scan before the move = %+v, want one segment with records and a snapshot", want)
	}
	if err := os.Rename(dir, dir+".moved"); err != nil {
		t.Fatal(err)
	}
	defer os.Rename(dir+".moved", dir) // so Close and TempDir cleanup find it
	if _, err := os.ReadDir(dir); err == nil {
		t.Fatal("directory still readable after the move")
	}
	if got := l.Stats(); got != want {
		t.Fatalf("Stats with the directory gone:\n got  %+v\n want %+v", got, want)
	}
	if _, err := l.Append("rec", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	want.NextSeq++
	want.WALBytes += 8 + 10 + int64(len("rec")) + 100
	if got := l.Stats(); got != want {
		t.Fatalf("Stats after an append with the directory gone:\n got  %+v\n want %+v", got, want)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
