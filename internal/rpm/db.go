package rpm

import (
	"fmt"
	"sort"
)

// DB is the installed-package database of a single node, the analogue of
// /var/lib/rpm. The zero value is not ready; use NewDB.
//
// Per-name build lists are kept in PackageLess order (newest first) and a
// capability-name index maps every provided name to its installed providers,
// so Newest, WhoProvides, and HasProvider run without scanning or sorting.
// Both structures are maintained incrementally by add/remove.
type DB struct {
	byName    map[string][]*Package // name -> builds, sorted newest first
	provides  map[string][]*Package // capability name -> providers, sorted
	files     map[string]string     // file path -> owning package NEVRA
	installed []*Package            // lazy sorted cache for Installed; nil when stale

	// shared marks the maps as aliases of an adopted InstallSet's indexes,
	// read by every node that adopted the same set. They are copied into
	// private maps on the first mutation (detach); until then this DB must
	// never write to them.
	shared bool
}

// NewDB returns an empty installed-package database. The index maps are
// created on first mutation: a fleet node's DB usually adopts an
// InstallSet wholesale (replacing the maps anyway) or stays empty, and
// reads of nil maps are free.
func NewDB() *DB {
	return &DB{}
}

// ensure creates the index maps for a DB about to take its first direct
// mutation.
func (db *DB) ensure() {
	if db.byName == nil {
		db.byName = make(map[string][]*Package)
		db.provides = make(map[string][]*Package)
		db.files = make(map[string]string)
	}
}

// Len returns the number of installed packages.
func (db *DB) Len() int {
	n := 0
	for _, ps := range db.byName {
		n += len(ps)
	}
	return n
}

// Installed returns all installed packages sorted by NEVRA. The returned
// slice is shared (rebuilt only after an install or erase) and must not be
// modified.
func (db *DB) Installed() []*Package {
	if db.installed == nil {
		out := make([]*Package, 0, db.Len())
		for _, ps := range db.byName {
			out = append(out, ps...)
		}
		SortPackages(out)
		db.installed = out
	}
	return db.installed
}

// Newest returns the newest installed package with the given name, or nil.
func (db *DB) Newest(name string) *Package {
	ps := db.byName[name]
	if len(ps) == 0 {
		return nil
	}
	return ps[0]
}

// Has reports whether any package with the given name is installed.
func (db *DB) Has(name string) bool { return len(db.byName[name]) > 0 }

// HasProvider reports whether any installed package satisfies the
// capability, without allocating the provider list.
func (db *DB) HasProvider(req Capability) bool {
	if len(db.provides) == 0 {
		return false // fresh node: skip hashing entirely
	}
	for _, p := range db.provides[req.Name] {
		if p.ProvidesCap(req) {
			return true
		}
	}
	return false
}

// OwnerOf returns the NEVRA of the package owning a file path, if any.
//
//detlint:reached support: db_test.go, installset_test.go and property_test.go read the ownership index back after Install, Erase, Clone and AdoptSet
func (db *DB) OwnerOf(path string) (string, bool) {
	owner, ok := db.files[path]
	return owner, ok
}

// UnmetRequires returns the capabilities required by installed packages that
// no installed package provides: the database's dependency closure holes.
// A healthy node has none.
func (db *DB) UnmetRequires() []Capability {
	var unmet []Capability
	for _, ps := range db.byName {
		for _, p := range ps {
			for _, req := range p.Requires {
				if !db.HasProvider(req) {
					unmet = append(unmet, req)
				}
			}
		}
	}
	sort.Slice(unmet, func(i, j int) bool { return unmet[i].String() < unmet[j].String() })
	return unmet
}

// detach gives a DB adopted from a shared InstallSet private index maps,
// so a mutation cannot corrupt the set every other adopter reads. Only
// the map headers and entries are copied — the per-name slices stay
// capacity-capped views of the set's arena, and appends to them
// copy-on-write as usual.
func (db *DB) detach() {
	if !db.shared {
		return
	}
	db.shared = false
	byName := make(map[string][]*Package, len(db.byName))
	for name, ps := range db.byName {
		byName[name] = ps
	}
	db.byName = byName
	provides := make(map[string][]*Package, len(db.provides))
	for name, ps := range db.provides {
		provides[name] = ps
	}
	db.provides = provides
	files := make(map[string]string, len(db.files))
	for f, o := range db.files {
		files[f] = o
	}
	db.files = files
}

// add installs a package record without any checking. Used by Transaction.
func (db *DB) add(p *Package) error {
	db.detach()
	db.ensure()
	for _, q := range db.byName[p.Name] {
		if q.EVR.Compare(p.EVR) == 0 && q.Arch == p.Arch {
			return fmt.Errorf("rpm: %s is already installed", p.NEVRA())
		}
	}
	for _, f := range p.Files {
		if owner, ok := db.files[f]; ok {
			return fmt.Errorf("rpm: file %s from %s conflicts with file from %s", f, p.NEVRA(), owner)
		}
	}
	db.byName[p.Name] = InsertSorted(db.byName[p.Name], p)
	for _, name := range p.ProvideNames() {
		db.provides[name] = InsertSorted(db.provides[name], p)
	}
	for _, f := range p.Files {
		db.files[f] = p.NEVRA()
	}
	db.installed = nil
	return nil
}

// remove erases a package record. Used by Transaction.
func (db *DB) remove(p *Package) error {
	db.detach()
	ps := db.byName[p.Name]
	for i, q := range ps {
		if q.EVR.Compare(p.EVR) == 0 && q.Arch == p.Arch {
			db.byName[p.Name] = append(ps[:i:i], ps[i+1:]...)
			if len(db.byName[p.Name]) == 0 {
				delete(db.byName, p.Name)
			}
			for _, name := range q.ProvideNames() {
				db.provides[name] = RemovePtr(db.provides[name], q)
				if len(db.provides[name]) == 0 {
					delete(db.provides, name)
				}
			}
			for _, f := range q.Files {
				delete(db.files, f)
			}
			db.installed = nil
			return nil
		}
	}
	return fmt.Errorf("rpm: %s is not installed", p.NEVRA())
}

// Clone returns a deep copy of the database. Package pointers are shared
// (packages are immutable once published).
func (db *DB) Clone() *DB {
	out := &DB{
		byName:   make(map[string][]*Package, len(db.byName)),
		provides: make(map[string][]*Package, len(db.provides)),
		files:    make(map[string]string, len(db.files)),
	}
	for name, ps := range db.byName {
		out.byName[name] = append([]*Package(nil), ps...)
	}
	for name, ps := range db.provides {
		out.provides[name] = append([]*Package(nil), ps...)
	}
	for f, o := range db.files {
		out.files[f] = o
	}
	return out
}
