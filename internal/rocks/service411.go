package rocks

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
)

// The 411 Secure Information Service is how Rocks distributes login
// information (users, groups) from the frontend to compute nodes — the
// replacement for NIS. The frontend keeps the master copy; nodes pull
// versioned, checksummed snapshots. A node with a stale generation is out
// of sync, which verify-style tooling can detect.

// User is one login account.
type User struct {
	Name  string
	UID   int
	Group string
	Home  string
	Shell string
}

// Service411 is the frontend's master user database plus per-node sync
// state.
type Service411 struct {
	mu         sync.Mutex
	users      map[string]User
	generation int
	nodeGen    map[string]int // node -> generation last pulled
	nextUID    int
}

// New411 creates the service with no users.
func New411() *Service411 {
	return &Service411{
		users:   make(map[string]User),
		nodeGen: make(map[string]int),
		nextUID: 500,
	}
}

// AddUser creates an account, assigning the next UID. Home and shell get
// XSEDE-conventional defaults.
func (s *Service411) AddUser(name, group string) (User, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.users[name]; exists {
		return User{}, fmt.Errorf("rocks411: user %s already exists", name)
	}
	u := User{
		Name: name, UID: s.nextUID, Group: group,
		Home: "/export/home/" + name, Shell: "/bin/bash",
	}
	s.nextUID++
	s.users[name] = u
	s.generation++
	return u, nil
}

// Generation returns the master database generation.
func (s *Service411) Generation() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.generation
}

// Snapshot is a signed copy of the user database a node pulls.
type Snapshot struct {
	Generation int
	Users      []User
	Checksum   string
}

// snapshotChecksum signs the snapshot content.
func snapshotChecksum(gen int, users []User) string {
	h := sha256.New()
	fmt.Fprintf(h, "gen=%d", gen)
	for _, u := range users {
		fmt.Fprintf(h, "|%s:%d:%s:%s:%s", u.Name, u.UID, u.Group, u.Home, u.Shell)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// Pull produces the current snapshot and records that the node has it —
// the 411get a compute node runs from cron.
func (s *Service411) Pull(node string) Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	users := make([]User, 0, len(s.users))
	for _, u := range s.users {
		users = append(users, u)
	}
	sort.Slice(users, func(i, j int) bool { return users[i].UID < users[j].UID })
	s.nodeGen[node] = s.generation
	return Snapshot{
		Generation: s.generation,
		Users:      users,
		Checksum:   snapshotChecksum(s.generation, users),
	}
}

// Verify checks a snapshot's integrity.
func (snap Snapshot) Verify() bool {
	return snap.Checksum == snapshotChecksum(snap.Generation, snap.Users)
}

// StaleNodes returns nodes whose last pull predates the current generation,
// given the set of nodes that should be in sync.
func (s *Service411) StaleNodes(nodes []string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for _, n := range nodes {
		if s.nodeGen[n] != s.generation {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}
