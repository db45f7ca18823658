// Package repo implements Yum-style package repositories: named collections
// of packages with generated metadata (checksums, package lists), client-side
// repository configuration with priorities (the yum-plugin-priorities
// behaviour the paper's XNIT instructions require), and an HTTP server that
// exports repository metadata the way cb-repo.iu.xsede.org exported the
// XSEDE Yum repository.
//
// Resolution queries are indexed: repositories keep per-name build lists
// pre-sorted and maintain a capability-name -> providers index at
// Publish/Retract time, and Set caches its priority-sorted enabled view plus
// per-name/per-capability resolution results, invalidated by the member
// repositories' revision counters. See DESIGN.md, "Performance & indexing".
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
		r.packages[p.Name] = insertCopy(r.packages[p.Name], p)
		for _, cap := range p.ProvideNames() {
			r.provides[cap] = insertCopy(r.provides[cap], p)
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

// insertCopy inserts p into a list kept in rpm.PackageLess order,
// copy-on-write: the input slice is never mutated, because readers may hold
// it outside the repository lock.
func insertCopy(ps []*rpm.Package, p *rpm.Package) []*rpm.Package {
	i := sort.Search(len(ps), func(i int) bool { return rpm.PackageLess(p, ps[i]) })
	out := make([]*rpm.Package, 0, len(ps)+1)
	out = append(out, ps[:i]...)
	out = append(out, p)
	return append(out, ps[i:]...)
}

// Revision returns a counter that changes whenever repository content
// changes; clients use it to detect staleness. It reads lock-free: revision
// validation sits on the resolution fast path.
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
	defer r.mu.RUnlock()
	ps := r.packages[name]
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
// add, remove) while depsolve requests read it.
//
// The priority-sorted enabled view and per-name/per-capability resolution
// results are cached. The view is invalidated by Add/Remove/Enable; the
// resolution caches additionally by member-repository revision bumps,
// detected through the aggregate revision counter.
type Set struct {
	mu      sync.RWMutex
	configs []Config

	view     []Config                        // priority-sorted enabled view; nil when stale
	cacheRev uint64                          // aggregate member revision the caches were built at
	best     map[string]bestEntry            // name -> shadowing winner (including misses)
	prov     map[rpm.Capability]*rpm.Package // capability -> best provider (including misses)
}

// bestEntry is one cached Best result: the winning package and the ID of the
// repository offering it. A nil pkg caches a miss.
type bestEntry struct {
	pkg    *rpm.Package
	repoID string
}

// maxCacheEntries bounds each resolution cache. Misses are cached too, and
// lookup names arrive from untrusted API requests, so an unbounded map would
// grow forever on a long-lived server with static repositories; at the
// bound the cache is flushed and rebuilds from the repository indexes.
const maxCacheEntries = 4096

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
	s.invalidateLocked()
}

// Enable toggles a repository by ID, reporting whether it was found.
func (s *Set) Enable(id string, enabled bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, c := range s.configs {
		if c.Repo.ID == id {
			if s.configs[i].Enabled != enabled {
				s.configs[i].Enabled = enabled
				s.invalidateLocked()
			}
			return true
		}
	}
	return false
}

// invalidateLocked drops the cached view and resolution results after a
// configuration change. Callers hold the write lock.
func (s *Set) invalidateLocked() {
	s.view = nil
	s.best = nil
	s.prov = nil
}

// memberRev sums the member repositories' revision counters. Revisions only
// grow, so the sum changes whenever any member's content changes. Callers
// hold either lock.
func (s *Set) memberRev() uint64 {
	var rev uint64
	for _, c := range s.configs {
		rev += uint64(c.Repo.Revision())
	}
	return rev
}

// viewLocked returns the priority-sorted enabled view, rebuilding it if
// stale. Callers hold the write lock. The view is immutable once built.
func (s *Set) viewLocked() []Config {
	if s.view == nil {
		v := make([]Config, 0, len(s.configs))
		for _, c := range s.configs {
			if c.Enabled {
				v = append(v, c)
			}
		}
		sort.SliceStable(v, func(i, j int) bool { return v[i].Priority < v[j].Priority })
		s.view = v
	}
	return s.view
}

// cachedView returns the enabled view, taking the write lock only on a
// cache miss. The returned slice must not be modified.
func (s *Set) cachedView() []Config {
	s.mu.RLock()
	v := s.view
	s.mu.RUnlock()
	if v != nil {
		return v
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.viewLocked()
}

// revalidateLocked flushes the resolution caches if any member repository
// has changed since they were built. Callers hold the write lock.
func (s *Set) revalidateLocked() {
	rev := s.memberRev()
	if s.best == nil || s.prov == nil || rev != s.cacheRev {
		s.best = make(map[string]bestEntry)
		s.prov = make(map[rpm.Capability]*rpm.Package)
		s.cacheRev = rev
	}
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
	v := s.cachedView()
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
// the repository offering it ("" when not found). Results are cached until a
// configuration change or a member-repository revision bump.
func (s *Set) BestWithRepo(name string) (*rpm.Package, string) {
	s.mu.RLock()
	if s.best != nil && s.memberRev() == s.cacheRev {
		if e, ok := s.best[name]; ok {
			s.mu.RUnlock()
			return e.pkg, e.repoID
		}
	}
	s.mu.RUnlock()

	s.mu.Lock()
	defer s.mu.Unlock()
	s.revalidateLocked()
	e := s.bestLocked(name)
	return e.pkg, e.repoID
}

// bestLocked computes (or returns the cached) shadowing winner for a name.
// Callers hold the write lock with the caches revalidated.
func (s *Set) bestLocked(name string) bestEntry {
	if e, ok := s.best[name]; ok {
		return e
	}
	var e bestEntry
	bestPrio := -1
	for _, c := range s.viewLocked() {
		if bestPrio != -1 && c.Priority != bestPrio {
			break
		}
		ps := c.Repo.Get(name)
		if len(ps) == 0 {
			continue
		}
		bestPrio = c.Priority
		if head := ps[0]; e.pkg == nil || rpm.PackageLess(head, e.pkg) {
			e.pkg, e.repoID = head, c.Repo.ID
		}
	}
	if len(s.best) >= maxCacheEntries {
		s.best = make(map[string]bestEntry)
	}
	s.best[name] = e
	return e
}

// BestProvider returns the best package satisfying a capability. Named
// lookups go through priority shadowing; pure capability lookups scan all
// enabled repositories in priority order. Results are cached like
// BestWithRepo's.
func (s *Set) BestProvider(req rpm.Capability) *rpm.Package {
	s.mu.RLock()
	if s.prov != nil && s.memberRev() == s.cacheRev {
		if p, ok := s.prov[req]; ok {
			s.mu.RUnlock()
			return p
		}
	}
	s.mu.RUnlock()

	s.mu.Lock()
	defer s.mu.Unlock()
	s.revalidateLocked()
	if p, ok := s.prov[req]; ok {
		return p
	}
	var out *rpm.Package
	// Prefer a package whose own name matches, like Yum.
	if e := s.bestLocked(req.Name); e.pkg != nil && e.pkg.ProvidesCap(req) {
		out = e.pkg
	} else {
		for _, c := range s.viewLocked() {
			if p := c.Repo.FirstProvider(req); p != nil {
				out = p
				break
			}
		}
	}
	if len(s.prov) >= maxCacheEntries {
		s.prov = make(map[rpm.Capability]*rpm.Package)
	}
	s.prov[req] = out
	return out
}
