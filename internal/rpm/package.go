package rpm

import (
	"fmt"
	"sort"
	"strings"
)

// Relation is the comparison operator in a versioned capability, e.g. the
// ">=" in "openmpi >= 1.6".
type Relation int

// Capability relations.
const (
	Any Relation = iota // no version constraint
	EQ
	LT
	LE
	GT
	GE
)

func (r Relation) String() string {
	switch r {
	case Any:
		return ""
	case EQ:
		return "="
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	}
	return "?"
}

// Capability is something a package provides or requires: a name with an
// optional versioned relation.
type Capability struct {
	Name string
	Rel  Relation
	EVR  EVR
}

// Cap builds an unversioned capability.
func Cap(name string) Capability { return Capability{Name: name} }

// CapVer builds a versioned capability such as CapVer("gcc", GE, "4.4").
//
//detlint:reached benchmark: BenchmarkWhoProvidesIndexed (BENCH_baseline.json) builds its versioned lookups with it
func CapVer(name string, rel Relation, evr string) Capability {
	return Capability{Name: name, Rel: rel, EVR: MustParseEVR(evr)}
}

func (c Capability) String() string {
	if c.Rel == Any {
		return c.Name
	}
	return fmt.Sprintf("%s %s %s", c.Name, c.Rel, c.EVR)
}

// Satisfies reports whether a provided capability satisfies a required one.
// Names must match exactly; then version ranges must overlap. An unversioned
// side satisfies any constraint on the same name, matching RPM behaviour.
func (c Capability) Satisfies(req Capability) bool {
	if c.Name != req.Name {
		return false
	}
	if c.Rel == Any || req.Rel == Any {
		return true
	}
	cmp := c.EVR.Compare(req.EVR)
	switch req.Rel {
	case EQ:
		return relAdmits(c.Rel, cmp, true)
	case LT:
		return relAdmitsBelow(c.Rel, cmp)
	case LE:
		return relAdmitsBelow(c.Rel, cmp) || relAdmits(c.Rel, cmp, true)
	case GT:
		return relAdmitsAbove(c.Rel, cmp)
	case GE:
		return relAdmitsAbove(c.Rel, cmp) || relAdmits(c.Rel, cmp, true)
	}
	return false
}

// relAdmits reports whether the provider relation, whose version compares to
// the requirement version as cmp, can supply exactly the requirement version.
func relAdmits(provRel Relation, cmp int, _ bool) bool {
	switch provRel {
	case EQ:
		return cmp == 0
	case LT:
		return cmp > 0 // provides versions strictly below provEVR, which must exceed req
	case LE:
		return cmp >= 0
	case GT:
		return cmp < 0
	case GE:
		return cmp <= 0
	}
	return false
}

// relAdmitsBelow reports whether the provider can supply some version
// strictly below the requirement version.
func relAdmitsBelow(provRel Relation, cmp int) bool {
	switch provRel {
	case EQ:
		return cmp < 0
	case LT, LE:
		return true // provider range extends downward without bound
	case GT:
		return cmp < 0
	case GE:
		return cmp < 0
	}
	return false
}

// relAdmitsAbove reports whether the provider can supply some version
// strictly above the requirement version.
func relAdmitsAbove(provRel Relation, cmp int) bool {
	switch provRel {
	case EQ:
		return cmp > 0
	case GT, GE:
		return true // provider range extends upward without bound
	case LT:
		return cmp > 0
	case LE:
		return cmp > 0
	}
	return false
}

// Arch is a package architecture.
type Arch string

// ArchX86_64 is the one architecture the XCBC/XNIT catalogs carry.
const ArchX86_64 Arch = "x86_64"

// Package is a single installable software package (an "RPM").
type Package struct {
	Name      string
	EVR       EVR
	Arch      Arch
	Summary   string
	Category  string // catalog grouping used by the XCBC tables
	SizeBytes int64
	License   string

	Provides  []Capability
	Requires  []Capability
	Conflicts []Capability
	Obsoletes []Capability
	Files     []string

	// nevra caches the rendered identity. Builder.Build populates it (and
	// Clone's struct copy carries it along); packages constructed as bare
	// literals leave it empty and NEVRA falls back to formatting on the
	// fly without storing, so the method stays safe for concurrent use.
	nevra string
}

// NEVRA renders the full package identity, e.g. "openmpi-1.6.4-3.el6.x86_64".
func (p *Package) NEVRA() string {
	if p.nevra != "" {
		return p.nevra
	}
	return fmt.Sprintf("%s-%s.%s", p.Name, p.EVR, p.Arch)
}

func (p *Package) String() string { return p.NEVRA() }

// SelfProvides returns the implicit capability every package provides:
// its own name at its exact EVR.
func (p *Package) SelfProvides() Capability {
	return Capability{Name: p.Name, Rel: EQ, EVR: p.EVR}
}

// ProvidesCap reports whether the package satisfies the required capability,
// either through its name/EVR or an explicit provide. It allocates nothing:
// this predicate sits on the depsolve hot path.
func (p *Package) ProvidesCap(req Capability) bool {
	if p.SelfProvides().Satisfies(req) {
		return true
	}
	for _, c := range p.Provides {
		if c.Satisfies(req) {
			return true
		}
	}
	return false
}

// ProvideNames returns the deduplicated set of capability names the package
// provides (its own name plus explicit provides). Capability indexes key
// their provider lists by these names.
func (p *Package) ProvideNames() []string {
	names := make([]string, 0, len(p.Provides)+1)
	names = append(names, p.Name)
	for _, c := range p.Provides {
		dup := false
		for _, n := range names {
			if n == c.Name {
				dup = true
				break
			}
		}
		if !dup {
			names = append(names, c.Name)
		}
	}
	return names
}

// ConflictsWith reports whether p declares a conflict that q matches, in
// either direction.
func (p *Package) ConflictsWith(q *Package) bool {
	for _, c := range p.Conflicts {
		if q.ProvidesCap(c) {
			return true
		}
	}
	for _, c := range q.Conflicts {
		if p.ProvidesCap(c) {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the package, used when publishing the same
// logical package into multiple repositories.
func (p *Package) Clone() *Package {
	q := *p
	q.Provides = append([]Capability(nil), p.Provides...)
	q.Requires = append([]Capability(nil), p.Requires...)
	q.Conflicts = append([]Capability(nil), p.Conflicts...)
	q.Obsoletes = append([]Capability(nil), p.Obsoletes...)
	q.Files = append([]string(nil), p.Files...)
	return &q
}

// Builder provides fluent construction of packages for the static catalogs.
type Builder struct{ p Package }

// NewPackage starts building a package with the given name, EVR string, and
// architecture.
func NewPackage(name, evr string, arch Arch) *Builder {
	return &Builder{p: Package{Name: name, EVR: MustParseEVR(evr), Arch: arch}}
}

// Summary sets the one-line description.
func (b *Builder) Summary(s string) *Builder { b.p.Summary = s; return b }

// Category sets the catalog grouping.
func (b *Builder) Category(c string) *Builder { b.p.Category = c; return b }

// Size sets the package size in bytes.
func (b *Builder) Size(n int64) *Builder { b.p.SizeBytes = n; return b }

// Provides adds provided capabilities.
func (b *Builder) Provides(caps ...Capability) *Builder {
	b.p.Provides = append(b.p.Provides, caps...)
	return b
}

// Requires adds required capabilities.
func (b *Builder) Requires(caps ...Capability) *Builder {
	b.p.Requires = append(b.p.Requires, caps...)
	return b
}

// Conflicts adds conflicting capabilities.
func (b *Builder) Conflicts(caps ...Capability) *Builder {
	b.p.Conflicts = append(b.p.Conflicts, caps...)
	return b
}

// Files adds file paths owned by the package.
//
//detlint:reached support: db_test.go, installset_test.go and property_test.go give packages files to reach the file-conflict and ownership code in DB and Transaction
func (b *Builder) Files(paths ...string) *Builder {
	b.p.Files = append(b.p.Files, paths...)
	return b
}

// Build finalizes the package.
func (b *Builder) Build() *Package {
	p := b.p
	p.nevra = fmt.Sprintf("%s-%s.%s", p.Name, p.EVR, p.Arch)
	return &p
}

// PackageLess is the candidate-listing order Yum uses: name ascending, then
// EVR descending (newest first), then architecture. Sorted indexes and
// SortPackages share it so indexed and scanned lookups agree.
func PackageLess(a, b *Package) bool {
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	if c := a.EVR.Compare(b.EVR); c != 0 {
		return c > 0
	}
	return a.Arch < b.Arch
}

// SortPackages orders packages by PackageLess.
func SortPackages(pkgs []*Package) {
	sort.SliceStable(pkgs, func(i, j int) bool { return PackageLess(pkgs[i], pkgs[j]) })
}

// InsertSorted inserts p into a slice maintained in PackageLess order,
// returning the updated slice. Equal elements keep insertion order.
func InsertSorted(ps []*Package, p *Package) []*Package {
	i := sort.Search(len(ps), func(i int) bool { return PackageLess(p, ps[i]) })
	ps = append(ps, nil)
	copy(ps[i+1:], ps[i:])
	ps[i] = p
	return ps
}

// RemovePtr drops the exact package pointer from a list, copy-on-write: the
// input slice's elements are never overwritten, so readers holding it are
// unaffected. Returns the input unchanged if p is absent.
func RemovePtr(ps []*Package, p *Package) []*Package {
	for i, q := range ps {
		if q == p {
			return append(ps[:i:i], ps[i+1:]...)
		}
	}
	return ps
}

// ParseCapability parses strings like "openmpi", "gcc >= 4.4", or
// "hdf5 = 1.8.9-3". It accepts the operators =, ==, <, <=, >, >=.
func ParseCapability(s string) (Capability, error) {
	fields := strings.Fields(s)
	switch len(fields) {
	case 1:
		return Capability{Name: fields[0]}, nil
	case 3:
		var rel Relation
		switch fields[1] {
		case "=", "==":
			rel = EQ
		case "<":
			rel = LT
		case "<=":
			rel = LE
		case ">":
			rel = GT
		case ">=":
			rel = GE
		default:
			return Capability{}, fmt.Errorf("rpm: bad relation %q in %q", fields[1], s)
		}
		evr, err := ParseEVR(fields[2])
		if err != nil {
			return Capability{}, err
		}
		return Capability{Name: fields[0], Rel: rel, EVR: evr}, nil
	}
	return Capability{}, fmt.Errorf("rpm: cannot parse capability %q", s)
}
