package repo

import (
	"fmt"
	"maps"
	"slices"
	"time"
)

// Mirror keeps a local copy of an upstream repository in sync — the
// campus-local XNIT mirror pattern: sites mirror cb-repo.iu.xsede.org so
// cluster nodes update from the LAN. Sync is incremental: nothing happens
// when the upstream revision is unchanged.
type Mirror struct {
	Upstream *Repository
	Local    *Repository

	lastRevision int
}

// NewMirror creates a mirror of upstream into a new local repository with
// the given ID.
func NewMirror(upstream *Repository, localID string) *Mirror {
	local := New(localID, upstream.Name+" (mirror)", "")
	return &Mirror{Upstream: upstream, Local: local, lastRevision: -1}
}

// Stale reports whether the upstream has changed since the last sync.
func (m *Mirror) Stale() bool { return m.Upstream.Revision() != m.lastRevision }

// Sync brings the local copy up to date and returns how many packages were
// added and removed. A no-op when fresh.
func (m *Mirror) Sync() (added, removed int, err error) {
	if !m.Stale() {
		return 0, 0, nil
	}
	upstream := make(map[string]bool)
	for _, p := range m.Upstream.All() {
		upstream[p.NEVRA()] = true
	}
	local := make(map[string]bool)
	for _, p := range m.Local.All() {
		local[p.NEVRA()] = true
	}
	// Add what upstream has and we lack.
	for _, p := range m.Upstream.All() {
		if !local[p.NEVRA()] {
			if err := m.Local.Publish(p.Clone()); err != nil {
				return added, removed, fmt.Errorf("repo: mirror publish: %w", err)
			}
			added++
		}
	}
	// Retract what upstream retracted, in sorted order: retraction mutates
	// the local repository revision by revision, and on error the partial
	// state (and which NEVRA the error names) must be reproducible.
	for _, nevra := range slices.Sorted(maps.Keys(local)) {
		if !upstream[nevra] {
			if err := m.Local.Retract(nevra); err != nil {
				return added, removed, fmt.Errorf("repo: mirror retract: %w", err)
			}
			removed++
		}
	}
	m.lastRevision = m.Upstream.Revision()
	return added, removed, nil
}

// VerifyIntegrity cross-checks every mirrored package's checksum against
// the upstream's metadata; mismatches mean a corrupted mirror.
func (m *Mirror) VerifyIntegrity(now time.Time) []string {
	md := m.Upstream.GenerateMetadata(now)
	return md.Verify(m.Local)
}
