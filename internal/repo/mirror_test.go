package repo

import (
	"testing"

	"xcbc/internal/rpm"
)

func TestMirrorInitialSync(t *testing.T) {
	up := New("xsede", "XSEDE NIT", "")
	up.Publish(pkg("gcc", "4.4.7-11"), pkg("openmpi", "1.6.4-3"))
	m := NewMirror(up, "xsede-local")
	if !m.Stale() {
		t.Fatal("new mirror should be stale")
	}
	added, removed, err := m.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if added != 2 || removed != 0 {
		t.Fatalf("sync = +%d -%d", added, removed)
	}
	if m.Local.Len() != 2 {
		t.Fatalf("local len = %d", m.Local.Len())
	}
	if m.Stale() {
		t.Fatal("mirror should be fresh after sync")
	}
}

func TestMirrorIncrementalSync(t *testing.T) {
	up := New("xsede", "XSEDE NIT", "")
	up.Publish(pkg("gcc", "4.4.7-11"))
	m := NewMirror(up, "local")
	m.Sync()
	// No change: no-op.
	added, removed, _ := m.Sync()
	if added != 0 || removed != 0 {
		t.Fatal("fresh sync should be a no-op")
	}
	// Publish an update and retract nothing.
	up.Publish(pkg("gcc", "4.4.7-16"))
	added, removed, _ = m.Sync()
	if added != 1 || removed != 0 {
		t.Fatalf("incremental = +%d -%d", added, removed)
	}
	// Retract upstream: mirror follows.
	up.Retract("gcc-4.4.7-11.x86_64")
	added, removed, _ = m.Sync()
	if added != 0 || removed != 1 {
		t.Fatalf("retraction sync = +%d -%d", added, removed)
	}
	if m.Local.Len() != 1 || m.Local.Newest("gcc").EVR.String() != "4.4.7-16" {
		t.Fatal("mirror content wrong after retraction")
	}
}

func TestMirrorIntegrity(t *testing.T) {
	up := New("xsede", "XSEDE NIT", "")
	up.Publish(rpm.NewPackage("gcc", "4.4.7-11", rpm.ArchX86_64).Size(100).Build())
	m := NewMirror(up, "local")
	m.Sync()
	if bad := m.VerifyIntegrity(fixedClock()); len(bad) != 0 {
		t.Fatalf("fresh mirror should verify: %v", bad)
	}
	// Corrupt the local copy.
	m.Local.Retract("gcc-4.4.7-11.x86_64")
	m.Local.Publish(rpm.NewPackage("gcc", "4.4.7-11", rpm.ArchX86_64).Size(999).Build())
	if bad := m.VerifyIntegrity(fixedClock()); len(bad) != 1 {
		t.Fatalf("corruption should be caught: %v", bad)
	}
}

func TestMirrorServesClients(t *testing.T) {
	// Clients resolving against the mirror see the same candidates as
	// against upstream.
	up := New("xsede", "XSEDE NIT", "")
	up.Publish(pkg("R", "3.0.1-1"), pkg("R", "3.1.2-1"))
	m := NewMirror(up, "campus-mirror")
	m.Sync()
	set := NewSet(Config{Repo: m.Local, Priority: 50, Enabled: true})
	if got := set.Best("R").EVR.String(); got != "3.1.2-1" {
		t.Fatalf("Best via mirror = %s", got)
	}
}
