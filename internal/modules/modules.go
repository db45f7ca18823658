// Package modules implements an environment-modules subsystem: modulefiles
// describing environment mutations, a per-session environment, and the
// avail/load/unload/list commands users run on XSEDE clusters. The paper
// credits Montana State administrators with working out how to expose XCBC
// software through environment modules; FromPackages reproduces that
// integration by deriving modulefiles from a frontend's installed packages.
package modules

import (
	"fmt"
	"sort"
	"strings"
	"unicode"

	"xcbc/internal/rpm"
)

// Modulefile describes one loadable module: environment variable settings,
// PATH-style prepends, conflicts, and prerequisites.
type Modulefile struct {
	Name    string // e.g. "openmpi"
	Version string // e.g. "1.6.4"
	Default bool   // loaded when requested without a version

	PrependPath map[string][]string // var -> paths, e.g. PATH, LD_LIBRARY_PATH
	SetEnv      map[string]string
	Conflicts   []string // module names that cannot co-load
	Prereqs     []string // module names that must be loaded first
}

// Key returns name/version, the canonical module identifier.
func (m *Modulefile) Key() string { return m.Name + "/" + m.Version }

// System is a collection of modulefiles (the MODULEPATH contents). It is
// filled only while FromPackages builds it and never written afterwards,
// so one System may serve every deployment of the same package set.
type System struct {
	files map[string][]*Modulefile // name -> versions
}

// add registers a modulefile. Re-adding the same name/version replaces it.
func (s *System) add(m *Modulefile) {
	list := s.files[m.Name]
	for i, existing := range list {
		if existing.Version == m.Version {
			list[i] = m
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

// FromPackages derives modulefiles from installed packages: every package
// in the given categories (all of them, when none are given) gets a module
// exposing /opt/apps/<name>/<version> paths, laid out the way XSEDE
// clusters lay out their software trees (the paper: "libraries are in the
// same place as on XSEDE clusters").
func FromPackages(pkgs []*rpm.Package, categories ...string) *System {
	wanted := make(map[string]bool, len(categories))
	for _, c := range categories {
		wanted[c] = true
	}
	sys := &System{files: make(map[string][]*Modulefile)}
	for _, p := range pkgs {
		if len(wanted) > 0 && !wanted[p.Category] {
			continue
		}
		sys.add(moduleForPackage(p))
	}
	return sys
}

func moduleForPackage(p *rpm.Package) *Modulefile {
	root := "/opt/apps/" + p.Name + "/" + p.EVR.Version
	env := strings.Map(func(r rune) rune {
		if r == '-' || r == '.' {
			return '_'
		}
		return unicode.ToUpper(r)
	}, p.Name)
	return &Modulefile{
		Name:    p.Name,
		Version: p.EVR.Version,
		Default: true,
		PrependPath: map[string][]string{
			"PATH":            {root + "/bin"},
			"LD_LIBRARY_PATH": {root + "/lib"},
		},
		SetEnv: map[string]string{
			"XSEDE_" + env + "_DIR": root,
		},
	}
}
