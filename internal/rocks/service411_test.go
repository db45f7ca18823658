package rocks

import (
	"testing"
)

func TestService411AddUsers(t *testing.T) {
	s := New411()
	alice, err := s.AddUser("alice", "research")
	if err != nil {
		t.Fatal(err)
	}
	if alice.UID != 500 || alice.Home != "/export/home/alice" {
		t.Fatalf("alice = %+v", alice)
	}
	bob, _ := s.AddUser("bob", "research")
	if bob.UID != 501 {
		t.Fatalf("bob UID = %d", bob.UID)
	}
	if _, err := s.AddUser("alice", "x"); err == nil {
		t.Fatal("duplicate user should fail")
	}
	if got := s.Pull("compute-0-0").Users; len(got) != 2 || got[0].Name != "alice" || got[1].Name != "bob" {
		t.Fatalf("users = %v", got)
	}
}

func TestService411GenerationsAndSync(t *testing.T) {
	s := New411()
	s.AddUser("alice", "research")
	nodes := []string{"compute-0-0", "compute-0-1"}
	if got := s.StaleNodes(nodes); len(got) != 2 {
		t.Fatalf("all nodes stale initially: %v", got)
	}
	snap := s.Pull("compute-0-0")
	if !snap.Verify() {
		t.Fatal("snapshot should verify")
	}
	if len(snap.Users) != 1 || snap.Generation != s.Generation() {
		t.Fatalf("snapshot = %+v", snap)
	}
	if got := s.StaleNodes(nodes); len(got) != 1 || got[0] != "compute-0-1" {
		t.Fatalf("stale = %v", got)
	}
	s.Pull("compute-0-1")
	if got := s.StaleNodes(nodes); len(got) != 0 {
		t.Fatalf("stale after full sync = %v", got)
	}
	// A change bumps the generation; everyone is stale again.
	s.AddUser("bob", "research")
	if got := s.StaleNodes(nodes); len(got) != 2 {
		t.Fatalf("stale after change = %v", got)
	}
}

func TestService411SnapshotTamperDetected(t *testing.T) {
	s := New411()
	s.AddUser("alice", "research")
	snap := s.Pull("n1")
	snap.Users[0].Shell = "/bin/evil"
	if snap.Verify() {
		t.Fatal("tampered snapshot must not verify")
	}
}
