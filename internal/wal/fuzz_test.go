package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// frame encodes one record exactly as AppendBatch writes it.
func frame(seq uint64, typ string, data []byte) []byte {
	payload := binary.LittleEndian.AppendUint64(nil, seq)
	payload = binary.LittleEndian.AppendUint16(payload, uint16(len(typ)))
	payload = append(append(payload, typ...), data...)
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli()))
	return append(out, payload...)
}

// FuzzRecoverSegment feeds arbitrary bytes to recovery as the body of a
// log's only segment. Open must never panic and may fail only with
// ErrCorrupt. What it recovers must run consecutively from seq 0, its
// repair must be final (a second Open repairs nothing and sees the same
// records), and the repaired log must take appends that a third Open
// recovers.
func FuzzRecoverSegment(f *testing.F) {
	var valid []byte
	for seq := range uint64(3) {
		valid = append(valid, frame(seq, "x", make([]byte, 20))...)
	}
	f.Add(valid)
	f.Add(append(bytes.Clone(valid), frame(3, "x", make([]byte, 20))[:17]...))
	// The image a log that kept appending after a short write left behind:
	// three records, the first 50 bytes of a 200-byte record's frame, and
	// three more records reusing its seq.
	short := append(bytes.Clone(valid), frame(3, "x", make([]byte, 200))[:50]...)
	for seq := uint64(3); seq < 6; seq++ {
		short = append(short, frame(seq, "x", make([]byte, 20))...)
	}
	f.Add(short)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		seg := append([]byte(segMagic), body...)
		if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000000.log"), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		opts := Options{NoSync: true}
		l, rec, err := Open(dir, opts)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open = %v, want nil or ErrCorrupt", err)
			}
			return
		}
		for i, r := range rec.Records {
			if r.Seq != uint64(i) {
				t.Fatalf("record %d has seq %d", i, r.Seq)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		l, again, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		if again.Repaired || !reflect.DeepEqual(again.Records, rec.Records) {
			t.Fatalf("second Open: repaired %v, %d records; first recovered %d",
				again.Repaired, len(again.Records), len(rec.Records))
		}
		seq, err := l.Append("after", []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		l, third, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("third Open: %v", err)
		}
		defer l.Close()
		want := append(rec.Records, Record{Seq: seq, Type: "after", Data: []byte("x")})
		if !reflect.DeepEqual(third.Records, want) {
			t.Fatalf("third Open recovered %+v, want %+v", third.Records, want)
		}
	})
}
