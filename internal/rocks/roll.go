// Package rocks models the Rocks cluster toolkit the paper's XCBC build
// depends on: rolls (installable collections of packages wired into a
// kickstart-style appliance graph), distributions built from rolls, the
// frontend's cluster database of hosts/appliances/attributes, and the
// update-roll builder the Rocks documentation recommends for keeping
// clusters current.
package rocks

import (
	"fmt"
	"sort"
	"sync"

	"xcbc/internal/rpm"
)

// Appliance is a node type in the Rocks graph; rolls attach package sets to
// appliances.
type Appliance string

// Appliance types used by XCBC.
const (
	ApplianceFrontend Appliance = "frontend"
	ApplianceCompute  Appliance = "compute"
)

// Roll is an installable collection: packages plus graph edges describing
// which appliances receive which package groups. The XSEDE roll is one of
// these; so are the Rocks optional rolls of Table 1 (hpc, ganglia, area51…).
type Roll struct {
	Name     string
	Version  string
	Optional bool // optional rolls can be deselected at install time
	Summary  string

	packages map[Appliance][]*rpm.Package
	// nodesXML models the roll's graph nodes: named package groups that the
	// kickstart graph stitches into appliances.
	order []Appliance
}

// NewRoll creates an empty roll.
func NewRoll(name, version, summary string, optional bool) *Roll {
	return &Roll{
		Name:     name,
		Version:  version,
		Optional: optional,
		Summary:  summary,
		packages: make(map[Appliance][]*rpm.Package),
	}
}

// AddPackages attaches packages to an appliance type within the roll.
func (r *Roll) AddPackages(app Appliance, pkgs ...*rpm.Package) *Roll {
	if _, seen := r.packages[app]; !seen {
		r.order = append(r.order, app)
	}
	r.packages[app] = append(r.packages[app], pkgs...)
	return r
}

// PackagesFor returns the packages this roll installs on an appliance type.
// Frontend appliances also receive everything computes receive (the Rocks
// frontend carries the full distribution).
func (r *Roll) PackagesFor(app Appliance) []*rpm.Package {
	out := append([]*rpm.Package(nil), r.packages[app]...)
	if app == ApplianceFrontend {
		out = append(out, r.packages[ApplianceCompute]...)
	}
	return dedupe(out)
}

// AllPackages returns every package in the roll, deduplicated.
func (r *Roll) AllPackages() []*rpm.Package {
	var out []*rpm.Package
	for _, app := range r.order {
		out = append(out, r.packages[app]...)
	}
	return dedupe(out)
}

// PackageCount returns the number of distinct packages in the roll.
func (r *Roll) PackageCount() int { return len(r.AllPackages()) }

func (r *Roll) String() string {
	return fmt.Sprintf("roll %s-%s (%d packages)", r.Name, r.Version, r.PackageCount())
}

func dedupe(pkgs []*rpm.Package) []*rpm.Package {
	seen := make(map[string]bool, len(pkgs))
	out := pkgs[:0:0]
	for _, p := range pkgs {
		k := p.NEVRA()
		if !seen[k] {
			seen[k] = true
			out = append(out, p)
		}
	}
	return out
}

// Distribution is the on-disk install tree built from a set of rolls
// ("rocks create distro"): the package source for kickstarting nodes.
// A distribution is immutable once built (CreateUpdateRoll returns a new
// roll without touching the receiver), so one instance is safe to share
// across every member of a fleet.
type Distribution struct {
	Name  string
	Rolls []*Roll

	mu          sync.Mutex
	installSets map[Appliance]*installSetEntry
}

// installSetEntry memoizes one appliance's validated install set, error
// included, so repeat callers never recompute either outcome.
type installSetEntry struct {
	set *rpm.InstallSet
	err error
}

// BuildDistribution assembles a distribution from rolls, rejecting duplicate
// roll names (Rocks requires removing the old roll first).
func BuildDistribution(name string, rolls ...*Roll) (*Distribution, error) {
	seen := make(map[string]bool)
	for _, r := range rolls {
		if seen[r.Name] {
			return nil, fmt.Errorf("rocks: roll %s added twice", r.Name)
		}
		seen[r.Name] = true
	}
	return &Distribution{Name: name, Rolls: rolls}, nil
}

// RollNames returns the sorted roll names in the distribution.
func (d *Distribution) RollNames() []string {
	names := make([]string, len(d.Rolls))
	for i, r := range d.Rolls {
		names[i] = r.Name
	}
	sort.Strings(names)
	return names
}

// PackagesFor returns every package the distribution installs on an
// appliance, across all rolls, newest build winning on name collisions
// (a roll may update a base package).
func (d *Distribution) PackagesFor(app Appliance) []*rpm.Package {
	best := make(map[string]*rpm.Package)
	for _, r := range d.Rolls {
		for _, p := range r.PackagesFor(app) {
			if cur, ok := best[p.Name]; !ok || p.EVR.Compare(cur.EVR) > 0 {
				best[p.Name] = p
			}
		}
	}
	out := make([]*rpm.Package, 0, len(best))
	for _, p := range best {
		out = append(out, p)
	}
	rpm.SortPackages(out)
	return out
}

// InstallSet returns the distribution's validated bulk install set for an
// appliance, computed once and cached: the exact PackagesFor list run
// through the same dup/file/requires/conflicts battery a per-node install
// transaction would apply, with shared DB indexes prebuilt. Fleet
// provisioning stamps this set onto every fresh node instead of re-checking
// an identical transaction per node.
func (d *Distribution) InstallSet(app Appliance) (*rpm.InstallSet, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.installSets[app]; ok {
		return e.set, e.err
	}
	set, err := rpm.NewInstallSet(d.PackagesFor(app))
	if d.installSets == nil {
		d.installSets = make(map[Appliance]*installSetEntry)
	}
	d.installSets[app] = &installSetEntry{set: set, err: err}
	return set, err
}
