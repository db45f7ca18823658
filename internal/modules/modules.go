// Package modules implements an environment-modules subsystem: modulefiles
// describing environment mutations, a per-session environment, and the
// avail/load/unload/list commands users run on XSEDE clusters. The paper
// credits Montana State administrators with working out how to expose XCBC
// software through environment modules; GenerateFromPackages reproduces that
// integration by deriving modulefiles from an installed-package database.
package modules

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"xcbc/internal/rpm"
)

// Modulefile describes one loadable module: environment variable settings,
// PATH-style prepends, conflicts, and prerequisites.
type Modulefile struct {
	Name    string // e.g. "openmpi"
	Version string // e.g. "1.6.4"
	Default bool   // loaded when requested without a version
	Help    string

	PrependPath map[string][]string // var -> paths, e.g. PATH, LD_LIBRARY_PATH
	SetEnv      map[string]string
	Conflicts   []string // module names that cannot co-load
	Prereqs     []string // module names that must be loaded first
}

// Key returns name/version, the canonical module identifier.
func (m *Modulefile) Key() string { return m.Name + "/" + m.Version }

// System is a collection of modulefiles (the MODULEPATH contents).
type System struct {
	files map[string][]*Modulefile // name -> versions

	// shared marks files as an alias of a memoized module tree served to
	// every deployment of the same package set (see GenerateFromPackages).
	// The first Add detaches onto private copies.
	shared bool
}

// NewSystem returns an empty module system.
func NewSystem() *System {
	return &System{files: make(map[string][]*Modulefile)}
}

// detach gives a System aliasing a memoized module tree its own map, so
// an Add cannot leak into other deployments of the same package set. The
// per-name slices stay shared but capacity-capped: appends copy on write,
// and Add's replace path copies before writing.
func (s *System) detach() {
	if !s.shared {
		return
	}
	s.shared = false
	files := make(map[string][]*Modulefile, len(s.files))
	for name, ms := range s.files {
		files[name] = ms[:len(ms):len(ms)]
	}
	s.files = files
}

// Add registers a modulefile. Re-adding the same name/version replaces it.
func (s *System) Add(m *Modulefile) {
	s.detach()
	list := s.files[m.Name]
	for i, existing := range list {
		if existing.Version == m.Version {
			// Copy before writing: the backing array may still be shared
			// with the memoized tree this System detached from.
			cp := append([]*Modulefile(nil), list...)
			cp[i] = m
			s.files[m.Name] = cp
			return
		}
	}
	s.files[m.Name] = append(list, m)
}

// Avail returns all module keys sorted, the "module avail" listing.
func (s *System) Avail() []string {
	var out []string
	for _, versions := range s.files {
		for _, m := range versions {
			key := m.Key()
			if m.Default {
				key += " (default)"
			}
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}

// Resolve finds a modulefile by "name" or "name/version". A bare name picks
// the default version, or the newest if none is marked default.
func (s *System) Resolve(spec string) (*Modulefile, error) {
	name, version := spec, ""
	if i := strings.IndexByte(spec, '/'); i >= 0 {
		name, version = spec[:i], spec[i+1:]
	}
	versions := s.files[name]
	if len(versions) == 0 {
		return nil, fmt.Errorf("modules: no module %q", name)
	}
	if version != "" {
		for _, m := range versions {
			if m.Version == version {
				return m, nil
			}
		}
		return nil, fmt.Errorf("modules: no module %q version %q", name, version)
	}
	for _, m := range versions {
		if m.Default {
			return m, nil
		}
	}
	best := versions[0]
	for _, m := range versions[1:] {
		if rpm.Vercmp(m.Version, best.Version) > 0 {
			best = m
		}
	}
	return best, nil
}

// Session is one user's shell with loaded modules and a mutable environment.
type Session struct {
	sys    *System
	loaded []*Modulefile
	env    map[string]string
}

// NewSession starts a session with a base environment (copied).
func (s *System) NewSession(baseEnv map[string]string) *Session {
	env := make(map[string]string, len(baseEnv))
	for k, v := range baseEnv {
		env[k] = v
	}
	return &Session{sys: s, env: env}
}

// Load loads a module by spec, enforcing prerequisites and conflicts.
func (sess *Session) Load(spec string) error {
	m, err := sess.sys.Resolve(spec)
	if err != nil {
		return err
	}
	for _, l := range sess.loaded {
		if l.Name == m.Name {
			return fmt.Errorf("modules: %s already loaded as %s", m.Name, l.Key())
		}
		for _, c := range m.Conflicts {
			if l.Name == c {
				return fmt.Errorf("modules: %s conflicts with loaded %s", m.Key(), l.Key())
			}
		}
		for _, c := range l.Conflicts {
			if m.Name == c {
				return fmt.Errorf("modules: %s conflicts with loaded %s", m.Key(), l.Key())
			}
		}
	}
	for _, pre := range m.Prereqs {
		found := false
		for _, l := range sess.loaded {
			if l.Name == pre {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("modules: %s requires module %s to be loaded first", m.Key(), pre)
		}
	}
	// Apply environment mutations.
	for k, v := range m.SetEnv {
		sess.env[k] = v
	}
	for k, paths := range m.PrependPath { //detlint:ordered each iteration reads and writes only its own env key
		existing := sess.env[k]
		parts := append([]string(nil), paths...)
		if existing != "" {
			parts = append(parts, existing)
		}
		sess.env[k] = strings.Join(parts, ":")
	}
	sess.loaded = append(sess.loaded, m)
	return nil
}

// List returns loaded module keys in load order ("module list").
func (sess *Session) List() []string {
	out := make([]string, len(sess.loaded))
	for i, m := range sess.loaded {
		out[i] = m.Key()
	}
	return out
}

// Env returns the current value of an environment variable.
func (sess *Session) Env(key string) string { return sess.env[key] }

// GenerateFromPackages derives modulefiles from an installed-package
// database: every package in the given categories gets a module exposing
// /opt/apps/<name>/<version> paths, laid out the way XSEDE clusters lay out
// their software trees (the paper: "libraries are in the same place as on
// XSEDE clusters").
func GenerateFromPackages(db *rpm.DB, categories ...string) *System {
	pkgs := db.Installed()

	// Fleet members adopting the same install set hand in the identical
	// package list, so the whole module tree is memoized: a cache hit
	// returns a fresh System header aliasing the shared map (Add detaches).
	// The key is cheap and collision-checked — same first package pointer,
	// length, and categories, verified element-by-element on hit.
	key := systemKey{n: len(pkgs), cats: strings.Join(categories, "\x00")}
	if len(pkgs) > 0 {
		key.first = pkgs[0]
	}
	if e, ok := systems.Load(key); ok {
		ent := e.(*systemEntry)
		if samePackages(ent.pkgs, pkgs) {
			return &System{files: ent.files, shared: true}
		}
		// Key collision with different contents: build uncached.
		return buildSystem(pkgs, categories)
	}
	sys := buildSystem(pkgs, categories)
	ent := &systemEntry{pkgs: pkgs, files: sys.files}
	if e, loaded := systems.LoadOrStore(key, ent); loaded {
		if ent2 := e.(*systemEntry); samePackages(ent2.pkgs, pkgs) {
			return &System{files: ent2.files, shared: true}
		}
		return sys
	}
	return &System{files: ent.files, shared: true}
}

type systemKey struct {
	first *rpm.Package
	n     int
	cats  string
}

type systemEntry struct {
	pkgs  []*rpm.Package
	files map[string][]*Modulefile
}

var systems sync.Map // systemKey -> *systemEntry

// samePackages reports whether two package lists are the identical
// pointers in the identical order.
func samePackages(a, b []*rpm.Package) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func buildSystem(pkgs []*rpm.Package, categories []string) *System {
	wanted := make(map[string]bool, len(categories))
	for _, c := range categories {
		wanted[c] = true
	}
	sys := NewSystem()
	for _, p := range pkgs {
		if len(wanted) > 0 && !wanted[p.Category] {
			continue
		}
		sys.Add(moduleForPackage(p))
	}
	return sys
}

// generated caches the modulefile derived from each package. Packages are
// immutable once published and fleet members share catalog pointers, so
// every member generating modules for the same frontend package set reuses
// one Modulefile instead of allocating the maps and env keys afresh.
// Generated modulefiles are read-only by contract (Load only reads
// them; Add replaces rather than mutates).
var generated sync.Map // *rpm.Package -> *Modulefile

func moduleForPackage(p *rpm.Package) *Modulefile {
	if m, ok := generated.Load(p); ok {
		return m.(*Modulefile)
	}
	root := fmt.Sprintf("/opt/apps/%s/%s", p.Name, p.EVR.Version)
	m := &Modulefile{
		Name:    p.Name,
		Version: p.EVR.Version,
		Default: true,
		Help:    p.Summary,
		PrependPath: map[string][]string{
			"PATH":            {root + "/bin"},
			"LD_LIBRARY_PATH": {root + "/lib"},
		},
		SetEnv: map[string]string{
			"XSEDE_" + strings.ToUpper(strings.NewReplacer("-", "_", ".", "_").Replace(p.Name)) + "_DIR": root,
		},
	}
	actual, _ := generated.LoadOrStore(p, m)
	return actual.(*Modulefile)
}
