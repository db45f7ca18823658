// Package storage models the shared filesystems the Table 3 deployments
// advertise (Montana State's 300 TB of Lustre, PBARC's 40 TB storage +
// 60 TB scratch): mounted filesystems with capacity accounting and per-user
// quotas. Storage is part of what makes a cluster usable for research, and
// quota exhaustion is one of the paper's "clusters aren't maintained"
// failure modes.
package storage

import (
	"fmt"
	"sort"

	"xcbc/internal/sim"
)

// Kind distinguishes persistent from scratch filesystems.
type Kind int

// Filesystem kinds.
const (
	//detlint:reached support: storage_test.go builds persistent mounts to check capacity, quotas and the report
	Persistent Kind = iota // /home, project storage
	Scratch                // a center's purged scratch space; only the label differs here
)

func (k Kind) String() string {
	if k == Scratch {
		return "scratch"
	}
	return "persistent"
}

// File is one stored object.
type File struct {
	Path     string
	Owner    string
	Bytes    int64
	Modified sim.Time
}

// Filesystem is one shared mount.
type Filesystem struct {
	Name       string
	Mount      string
	Kind       Kind
	CapacityGB int

	files  map[string]File
	quotas map[string]int64 // user -> byte limit (0 = none)
}

// NewFilesystem creates an empty mount.
func NewFilesystem(name, mount string, kind Kind, capacityGB int) *Filesystem {
	return &Filesystem{
		Name: name, Mount: mount, Kind: kind, CapacityGB: capacityGB,
		files:  make(map[string]File),
		quotas: make(map[string]int64),
	}
}

// SetQuota limits a user's total bytes (0 removes the quota).
func (fs *Filesystem) SetQuota(user string, bytes int64) {
	if bytes == 0 {
		delete(fs.quotas, user)
		return
	}
	fs.quotas[user] = bytes
}

// UsedBytes returns total consumption.
func (fs *Filesystem) UsedBytes() int64 {
	var n int64
	for _, f := range fs.files {
		n += f.Bytes
	}
	return n
}

// UsedByUser returns one user's consumption.
func (fs *Filesystem) UsedByUser(user string) int64 {
	var n int64
	for _, f := range fs.files {
		if f.Owner == user {
			n += f.Bytes
		}
	}
	return n
}

// CapacityBytes returns the mount's capacity.
func (fs *Filesystem) CapacityBytes() int64 { return int64(fs.CapacityGB) * 1e9 }

// ErrQuota and ErrFull are sentinel error kinds surfaced via errors.As.
type QuotaError struct {
	User  string
	Limit int64
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("storage: user %s over quota (%d bytes)", e.User, e.Limit)
}

type FullError struct{ Name string }

func (e *FullError) Error() string { return fmt.Sprintf("storage: filesystem %s is full", e.Name) }

// Write stores (or overwrites) a file, enforcing capacity and quota.
func (fs *Filesystem) Write(path, owner string, bytes int64, now sim.Time) error {
	var replacing int64
	if old, ok := fs.files[path]; ok {
		replacing = old.Bytes
	}
	if fs.UsedBytes()-replacing+bytes > fs.CapacityBytes() {
		return &FullError{Name: fs.Name}
	}
	if limit, ok := fs.quotas[owner]; ok {
		userReplacing := int64(0)
		if old, ok := fs.files[path]; ok && old.Owner == owner {
			userReplacing = old.Bytes
		}
		if fs.UsedByUser(owner)-userReplacing+bytes > limit {
			return &QuotaError{User: owner, Limit: limit}
		}
	}
	fs.files[path] = File{Path: path, Owner: owner, Bytes: bytes, Modified: now}
	return nil
}

// Report renders a df/quota-style summary.
func (fs *Filesystem) Report() string {
	used := fs.UsedBytes()
	pct := 0.0
	if fs.CapacityBytes() > 0 {
		pct = 100 * float64(used) / float64(fs.CapacityBytes())
	}
	out := fmt.Sprintf("%s on %s (%s): %.1f/%d GB used (%.1f%%)\n",
		fs.Name, fs.Mount, fs.Kind, float64(used)/1e9, fs.CapacityGB, pct)
	users := make(map[string]int64)
	for _, f := range fs.files {
		users[f.Owner] += f.Bytes
	}
	names := make([]string, 0, len(users))
	for u := range users {
		names = append(names, u)
	}
	sort.Strings(names)
	for _, u := range names {
		quota := "no quota"
		if limit, ok := fs.quotas[u]; ok {
			quota = fmt.Sprintf("quota %.1f GB", float64(limit)/1e9)
		}
		out += fmt.Sprintf("  %-12s %8.1f GB (%s)\n", u, float64(users[u])/1e9, quota)
	}
	return out
}
