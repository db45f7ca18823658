package storage

import (
	"errors"
	"strings"
	"testing"
)

func TestWriteAccounting(t *testing.T) {
	fs := NewFilesystem("lustre", "/lustre", Persistent, 300000) // MSU's 300 TB
	if err := fs.Write("/lustre/u/data.nc", "alice", 5e9); err != nil {
		t.Fatal(err)
	}
	if fs.UsedBytes() != 5e9 || fs.UsedByUser("alice") != 5e9 {
		t.Fatal("usage accounting")
	}
	// Overwrite replaces, not adds.
	if err := fs.Write("/lustre/u/data.nc", "alice", 7e9); err != nil {
		t.Fatal(err)
	}
	if fs.UsedBytes() != 7e9 {
		t.Fatalf("after overwrite: %d", fs.UsedBytes())
	}
}

func TestCapacityEnforced(t *testing.T) {
	fs := NewFilesystem("small", "/small", Persistent, 1) // 1 GB
	if err := fs.Write("/small/a", "u", 9e8); err != nil {
		t.Fatal(err)
	}
	err := fs.Write("/small/b", "u", 2e8)
	var full *FullError
	if !errors.As(err, &full) {
		t.Fatalf("err = %v, want FullError", err)
	}
	// Overwriting within capacity is allowed even when nearly full.
	if err := fs.Write("/small/a", "u", 9.5e8); err != nil {
		t.Fatal(err)
	}
}

func TestQuotaEnforced(t *testing.T) {
	fs := NewFilesystem("home", "/home", Persistent, 1000)
	fs.SetQuota("alice", 10e9)
	if err := fs.Write("/home/alice/a", "alice", 8e9); err != nil {
		t.Fatal(err)
	}
	err := fs.Write("/home/alice/b", "alice", 3e9)
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.User != "alice" {
		t.Fatalf("err = %v", err)
	}
	// Other users unaffected.
	if err := fs.Write("/home/bob/a", "bob", 3e9); err != nil {
		t.Fatal(err)
	}
	// Overwriting own file within quota works.
	if err := fs.Write("/home/alice/a", "alice", 9e9); err != nil {
		t.Fatal(err)
	}
	// Removing the quota unblocks.
	fs.SetQuota("alice", 0)
	if err := fs.Write("/home/alice/b", "alice", 3e9); err != nil {
		t.Fatal(err)
	}
}

func TestReport(t *testing.T) {
	fs := NewFilesystem("lustre", "/lustre", Persistent, 1000)
	fs.SetQuota("alice", 50e9)
	fs.Write("/lustre/alice/x", "alice", 10e9)
	fs.Write("/lustre/bob/y", "bob", 5e9)
	rep := fs.Report()
	for _, want := range []string{"lustre on /lustre", "alice", "quota 50.0 GB", "bob", "no quota"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	if Persistent.String() != "persistent" || Scratch.String() != "scratch" {
		t.Error("kind strings")
	}
}
