// Package repo implements Yum-style package repositories: named collections
// of packages with generated metadata (checksums, package lists), client-side
// repository configuration with priorities (the yum-plugin-priorities
// behaviour the paper's XNIT instructions require), and an HTTP server that
// exports repository metadata the way cb-repo.iu.xsede.org exported the
// XSEDE Yum repository.
//
// Resolution queries are indexed: repositories keep per-name build lists
// pre-sorted and maintain a capability-name -> providers index at
// Publish/Retract time, and Set resolves straight from those indexes over an
// immutable priority-sorted enabled view that Add and Enable republish. See
// DESIGN.md, "Performance & indexing".
package repo

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"xcbc/internal/rpm"
)

// DefaultPriority is the priority assigned to repositories that do not set
// one; yum-plugin-priorities uses 99.
const DefaultPriority = 99

// Repository is a published collection of packages. It is safe for concurrent
// use: publishing and querying may interleave (a mirror being updated while
// clients resolve).
//
// Internally every per-name build list and per-capability provider list is
// kept in rpm.PackageLess order (newest first) and updated copy-on-write, so
// query methods can hand out their interior slices without copying or
// sorting: a stored slice is never mutated after a reader could have seen
// it. Callers must therefore treat slices returned by Get, All, and
// WhoProvides as read-only.
type Repository struct {
	ID      string // short name, e.g. "xsede"
	Name    string // human-readable, e.g. "XSEDE National Integration Toolkit"
	BaseURL string // where the repo is nominally served from

	mu       sync.RWMutex
	packages map[string][]*rpm.Package // name -> builds, newest first (immutable slices)
	provides map[string][]*rpm.Package // capability name -> providers (immutable slices)
	count    int                       // total published packages
	revision atomic.Int64              // bumped on every publish/retract; read lock-free
	all      []*rpm.Package            // lazy cache of every package, sorted; nil when stale
}

// New creates an empty repository.
func New(id, name, baseURL string) *Repository {
	return &Repository{
		ID:       id,
		Name:     name,
		BaseURL:  baseURL,
		packages: make(map[string][]*rpm.Package),
		provides: make(map[string][]*rpm.Package),
	}
}

// Publish adds packages to the repository. Re-publishing an identical NEVRA
// is an error: released RPMs are immutable, a new build needs a new release.
func (r *Repository) Publish(pkgs ...*rpm.Package) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range pkgs {
		for _, q := range r.packages[p.Name] {
			if q.EVR.Compare(p.EVR) == 0 && q.Arch == p.Arch {
				return fmt.Errorf("repo %s: %s already published", r.ID, p.NEVRA())
			}
		}
	}
	for _, p := range pkgs {
		r.packages[p.Name] = rpm.InsertSorted(r.packages[p.Name], p)
		for _, cap := range p.ProvideNames() {
			r.provides[cap] = rpm.InsertSorted(r.provides[cap], p)
		}
		r.count++
	}
	r.invalidateLocked()
	return nil
}

// Retract removes a published package (used to model pulled packages).
func (r *Repository) Retract(nevra string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, ps := range r.packages { //detlint:ordered a NEVRA lives in exactly one name bucket; at most one iteration mutates
		for _, p := range ps {
			if p.NEVRA() == nevra {
				if rest := rpm.RemovePtr(ps, p); len(rest) == 0 {
					delete(r.packages, name)
				} else {
					r.packages[name] = rest
				}
				for _, cap := range p.ProvideNames() {
					if rest := rpm.RemovePtr(r.provides[cap], p); len(rest) == 0 {
						delete(r.provides, cap)
					} else {
						r.provides[cap] = rest
					}
				}
				r.count--
				r.invalidateLocked()
				return nil
			}
		}
	}
	return fmt.Errorf("repo %s: %s not published", r.ID, nevra)
}

// invalidateLocked bumps the revision and drops the lazy caches. Callers
// hold the write lock.
func (r *Repository) invalidateLocked() {
	r.revision.Add(1)
	r.all = nil
}

// Revision returns a counter that changes whenever repository content
// changes; clients use it to detect staleness (the repomd metadata, the
// API's repository listing and mirror sync). It reads lock-free.
func (r *Repository) Revision() int {
	return int(r.revision.Load())
}

// Len returns the number of published packages.
func (r *Repository) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.count
}

// Get returns all builds of a named package, newest first. The returned
// slice is shared and must not be modified.
func (r *Repository) Get(name string) []*rpm.Package {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.packages[name]
}

// Newest returns the newest build of a named package, or nil.
func (r *Repository) Newest(name string) *rpm.Package {
	r.mu.RLock()
	ps := r.packages[name]
	r.mu.RUnlock()
	if len(ps) == 0 {
		return nil
	}
	return ps[0]
}

// All returns every published package sorted by NEVRA. The returned slice is
// shared and must not be modified.
func (r *Repository) All() []*rpm.Package {
	r.mu.RLock()
	all := r.all
	r.mu.RUnlock()
	if all != nil {
		return all
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.all == nil {
		all := make([]*rpm.Package, 0, r.count)
		for _, ps := range r.packages {
			all = append(all, ps...)
		}
		rpm.SortPackages(all)
		r.all = all
	}
	return r.all
}

// WhoProvides returns published packages satisfying the capability, newest
// first. The returned slice is shared and must not be modified.
//
//detlint:reached benchmark: BenchmarkWhoProvidesIndexed (BENCH_baseline.json) measures the capability index through it
func (r *Repository) WhoProvides(req rpm.Capability) []*rpm.Package {
	r.mu.RLock()
	defer r.mu.RUnlock()
	candidates := r.provides[req.Name]
	matches := 0
	for _, p := range candidates {
		if p.ProvidesCap(req) {
			matches++
		}
	}
	if matches == len(candidates) {
		return candidates // common case: unversioned requirement
	}
	out := make([]*rpm.Package, 0, matches)
	for _, p := range candidates {
		if p.ProvidesCap(req) {
			out = append(out, p)
		}
	}
	return out
}

// FirstProvider returns the best (first in candidate order) published
// package satisfying the capability, or nil, without allocating.
func (r *Repository) FirstProvider(req rpm.Capability) *rpm.Package {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, p := range r.provides[req.Name] {
		if p.ProvidesCap(req) {
			return p
		}
	}
	return nil
}

// Config is a client-side repository configuration entry, the in-memory
// equivalent of a file in /etc/yum.repos.d.
type Config struct {
	Repo     *Repository
	Priority int  // lower wins, as in yum-plugin-priorities
	Enabled  bool // enabled=1
	// GPGCheck is gpgcheck=1, recorded as configured; nothing enforces it.
	//
	//detlint:reached benchmark: bench/layerprobe's xnitSet writes it when it builds repo-server's repository set
	GPGCheck bool
}

// Set is an ordered collection of repository configurations — the client's
// complete yum.repos.d. Priority shadowing is applied across repositories.
// It is safe for concurrent use: the control API mutates it (enable/disable,
// add) while depsolve requests read it.
//
// Add and Enable rebuild the priority-sorted enabled view under the lock and
// publish it as an immutable snapshot, so resolution takes no Set lock and
// reads member repositories through their own indexes.
type Set struct {
	mu      sync.RWMutex
	configs []Config
	view    atomic.Pointer[[]Config] // priority-sorted enabled view; never mutated once stored
}

// NewSet builds a set from configs.
func NewSet(configs ...Config) *Set {
	s := &Set{}
	for _, c := range configs {
		s.Add(c)
	}
	return s
}

// Add appends a repository configuration; a zero priority is replaced by
// DefaultPriority.
func (s *Set) Add(c Config) {
	if c.Priority == 0 {
		c.Priority = DefaultPriority
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.configs = append(s.configs, c)
	s.publishLocked()
}

// Enable toggles a repository by ID, reporting whether it was found.
func (s *Set) Enable(id string, enabled bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, c := range s.configs {
		if c.Repo.ID == id {
			if s.configs[i].Enabled != enabled {
				s.configs[i].Enabled = enabled
				s.publishLocked()
			}
			return true
		}
	}
	return false
}

// publishLocked rebuilds the enabled view: enabled configurations sorted by
// priority, ties broken by configuration order. Callers hold the write lock.
func (s *Set) publishLocked() {
	v := make([]Config, 0, len(s.configs))
	for _, c := range s.configs {
		if c.Enabled {
			v = append(v, c)
		}
	}
	sort.SliceStable(v, func(i, j int) bool { return v[i].Priority < v[j].Priority })
	s.view.Store(&v)
}

// enabled returns the current enabled view. The slice must not be modified.
func (s *Set) enabled() []Config {
	if v := s.view.Load(); v != nil {
		return *v
	}
	return nil
}

// Lookup returns the configured repository with the given ID, or nil.
func (s *Set) Lookup(id string) *Repository {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, c := range s.configs {
		if c.Repo.ID == id {
			return c.Repo
		}
	}
	return nil
}

// Enabled returns the enabled configurations sorted by priority (best first),
// ties broken by configuration order.
func (s *Set) Enabled() []Config {
	v := s.enabled()
	if len(v) == 0 {
		return nil
	}
	return append([]Config(nil), v...)
}

// Configs returns all configurations in insertion order.
func (s *Set) Configs() []Config {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]Config(nil), s.configs...)
}

// Best returns the single best candidate for a name: newest EVR from the
// highest-priority repository carrying it, or nil.
func (s *Set) Best(name string) *rpm.Package {
	p, _ := s.BestWithRepo(name)
	return p
}

// BestWithRepo returns the best candidate for a name together with the ID of
// the repository offering it ("" when not found).
func (s *Set) BestWithRepo(name string) (*rpm.Package, string) {
	return bestIn(s.enabled(), name)
}

// bestIn applies priority shadowing over an enabled view: only the
// repositories at the best priority carrying the name compete, and the
// newest build among them wins.
func bestIn(view []Config, name string) (best *rpm.Package, repoID string) {
	bestPrio := -1
	for _, c := range view {
		if bestPrio != -1 && c.Priority != bestPrio {
			break
		}
		p := c.Repo.Newest(name)
		if p == nil {
			continue
		}
		bestPrio = c.Priority
		if best == nil || rpm.PackageLess(p, best) {
			best, repoID = p, c.Repo.ID
		}
	}
	return best, repoID
}

// BestProvider returns the best package satisfying a capability. Named
// lookups go through priority shadowing; pure capability lookups scan all
// enabled repositories in priority order.
func (s *Set) BestProvider(req rpm.Capability) *rpm.Package {
	view := s.enabled()
	// Prefer a package whose own name matches, like Yum.
	if p, _ := bestIn(view, req.Name); p != nil && p.ProvidesCap(req) {
		return p
	}
	for _, c := range view {
		if p := c.Repo.FirstProvider(req); p != nil {
			return p
		}
	}
	return nil
}
