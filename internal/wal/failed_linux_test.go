//go:build linux

package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
)

// shortWriteReport is what the capped child process saw.
type shortWriteReport struct {
	Acked      []Record // every record whose Append returned nil, in order
	FailErr    string   // the capped append's error, "" if it succeeded
	LaterAcked int      // appends that returned nil after the failed one
	LaterOther []string // later errors (Err's too) that do not wrap ErrFailed
	CloseErr   string
}

// TestRecordAfterFailedWriteIsRefused forces a short write: the file-size
// limit stops a 200-byte append partway through its frame. The log must
// refuse every later append, even once the limit is lifted, so that the
// torn frame stays its tail and a reopen recovers every record an Append
// acknowledged. RLIMIT_FSIZE is process-wide, so the writes happen in a
// re-executed copy of the test binary.
func TestRecordAfterFailedWriteIsRefused(t *testing.T) {
	if dir := os.Getenv("WAL_SHORT_WRITE_DIR"); dir != "" {
		shortWriteChild(dir)
		return
	}
	dir, report := t.TempDir(), filepath.Join(t.TempDir(), "report.json")
	cmd := exec.Command(os.Args[0], "-test.run=^TestRecordAfterFailedWriteIsRefused$")
	cmd.Env = append(os.Environ(), "WAL_SHORT_WRITE_DIR="+dir, "WAL_SHORT_WRITE_REPORT="+report)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	raw, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var r shortWriteReport
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatal(err)
	}
	if r.FailErr == "" {
		t.Fatal("the capped append succeeded; the file-size limit did not bite")
	}
	if r.LaterAcked != 0 || len(r.LaterOther) != 0 {
		t.Errorf("after %q: %d appends acked, errors not wrapping ErrFailed: %q", r.FailErr, r.LaterAcked, r.LaterOther)
	}
	if r.CloseErr == "" {
		t.Error("Close of a failed log returned nil")
	}
	l, rec := openT(t, dir, Options{})
	defer l.Close()
	if !reflect.DeepEqual(rec.Records, r.Acked) {
		t.Fatalf("reopen recovered %d records, want the %d acked: got %+v, want %+v",
			len(rec.Records), len(r.Acked), rec.Records, r.Acked)
	}
}

// shortWriteChild runs the capped appends and writes a shortWriteReport.
func shortWriteChild(dir string) {
	var r shortWriteReport
	l, _, err := Open(dir, Options{SyncEvery: 1})
	if err != nil {
		panic(err)
	}
	appendOne := func(data []byte) error {
		seq, err := l.Append("x", data)
		if err == nil {
			r.Acked = append(r.Acked, Record{Seq: seq, Type: "x", Data: data})
		}
		return err
	}
	for i := 0; i < 3; i++ {
		if err := appendOne(make([]byte, 20)); err != nil {
			panic(err)
		}
	}
	info, err := os.Stat(filepath.Join(dir, "wal-0000000000000000.log"))
	if err != nil {
		panic(err)
	}
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		panic(err)
	}
	signal.Ignore(syscall.SIGXFSZ)
	capped := syscall.Rlimit{Cur: uint64(info.Size()) + 50, Max: old.Max}
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &capped); err != nil {
		panic(err)
	}
	failErr := appendOne(make([]byte, 200))
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		panic(err)
	}
	if failErr != nil {
		r.FailErr = failErr.Error()
	}
	for i := 0; i < 3; i++ {
		err := appendOne(make([]byte, 20))
		switch {
		case err == nil:
			r.LaterAcked++
		case !errors.Is(err, ErrFailed):
			r.LaterOther = append(r.LaterOther, err.Error())
		}
	}
	if err := l.Sync(); !errors.Is(err, ErrFailed) {
		r.LaterOther = append(r.LaterOther, fmt.Sprint(err))
	}
	if err := l.Err(); !errors.Is(err, ErrFailed) {
		r.LaterOther = append(r.LaterOther, fmt.Sprint("Err: ", err))
	}
	if err := l.Close(); err != nil {
		r.CloseErr = err.Error()
	}
	raw, err := json.Marshal(r)
	if err != nil {
		panic(err)
	}
	if err := os.WriteFile(os.Getenv("WAL_SHORT_WRITE_REPORT"), raw, 0o644); err != nil {
		panic(err)
	}
}
