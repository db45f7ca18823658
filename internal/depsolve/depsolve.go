// Package depsolve implements Yum-style dependency resolution over a
// repository set and an installed-package database: computing the
// transaction needed to install named packages (pulling in requirements
// transitively), listing available updates, and applying update policies
// (automatic application vs. administrator notification), which the paper
// discusses as the central operational choice for XNIT sites.
package depsolve

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"xcbc/internal/repo"
	"xcbc/internal/rpm"
)

// Resolver computes transactions against a repository set and an installed
// database.
type Resolver struct {
	Repos *repo.Set
	DB    *rpm.DB
}

// New returns a resolver over the given repositories and database.
func New(repos *repo.Set, db *rpm.DB) *Resolver {
	return &Resolver{Repos: repos, DB: db}
}

// ErrUnresolvable is the sentinel every *UnresolvableError matches with
// errors.Is.
var ErrUnresolvable = errors.New("depsolve: unresolvable dependencies")

// UnresolvableError reports requirements that could not be satisfied from
// the enabled repositories, with the dependency chain that led to each.
type UnresolvableError struct {
	Missing []MissingDep
}

// Is reports whether target is ErrUnresolvable.
func (e *UnresolvableError) Is(target error) bool { return target == ErrUnresolvable }

// MissingDep is one unsatisfiable requirement.
type MissingDep struct {
	Req    rpm.Capability
	Needed string // NEVRA of the package that required it, or "" for direct requests
}

func (e *UnresolvableError) Error() string {
	var b strings.Builder
	b.WriteString("depsolve: unresolvable dependencies:")
	for _, m := range e.Missing {
		fmt.Fprintf(&b, "\n  %s", m.Req)
		if m.Needed != "" {
			fmt.Fprintf(&b, " (required by %s)", m.Needed)
		}
	}
	return b.String()
}

// Install resolves the named packages and their transitive requirements into
// a transaction. Already-satisfied requirements add nothing; an installed
// older build of a requested name becomes an upgrade element.
func (r *Resolver) Install(names ...string) (*rpm.Transaction, error) {
	tx := &rpm.Transaction{}
	// planned maps package name -> package chosen in this transaction, so the
	// closure doesn't pull the same package twice. The capabilities the plan
	// provides are tracked incrementally so satisfied never rescans the
	// whole plan: a name-presence set answers unversioned requirements (the
	// overwhelming majority), and the flat capability list serves the rare
	// versioned ones.
	tx.Ops = make([]rpm.Op, 0, 32)
	planned := make(map[string]*rpm.Package, 48)
	providedAny := make(map[string]bool, 96) // capability name -> provided by the plan
	var providedCaps []rpm.Capability        // explicit provides, for versioned requirements
	var missing []MissingDep

	queue := make([]*rpm.Package, 0, 32)
	plan := func(p *rpm.Package) {
		planned[p.Name] = p
		providedAny[p.Name] = true
		for _, c := range p.Provides {
			providedAny[c.Name] = true
			providedCaps = append(providedCaps, c)
		}
		queue = append(queue, p)
	}
	satisfied := func(req rpm.Capability) bool {
		if r.DB.HasProvider(req) {
			return true
		}
		if req.Rel == rpm.Any {
			return providedAny[req.Name]
		}
		// Versioned requirement: check the like-named planned package's
		// self-provide, then the plan's explicit provides.
		if p, ok := planned[req.Name]; ok && p.ProvidesCap(req) {
			return true
		}
		for _, c := range providedCaps {
			if c.Satisfies(req) {
				return true
			}
		}
		return false
	}

	for _, name := range names {
		best := r.Repos.Best(name)
		if best == nil {
			missing = append(missing, MissingDep{Req: rpm.Cap(name)})
			continue
		}
		if _, already := planned[best.Name]; already {
			continue // duplicate request in names
		}
		cur := r.DB.Newest(name)
		if cur != nil {
			if cur.EVR.Compare(best.EVR) >= 0 {
				continue // already installed at this or a newer version
			}
			tx.Upgrade(best, cur)
		} else {
			tx.Install(best)
		}
		plan(best)
	}

	// Breadth-first closure over requirements.
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, req := range p.Requires {
			if satisfied(req) {
				continue
			}
			prov := r.Repos.BestProvider(req)
			if prov == nil {
				missing = append(missing, MissingDep{Req: req, Needed: p.NEVRA()})
				continue
			}
			if existing, ok := planned[prov.Name]; ok && existing.EVR.Compare(prov.EVR) >= 0 {
				continue
			}
			if cur := r.DB.Newest(prov.Name); cur != nil && cur.EVR.Compare(prov.EVR) < 0 {
				tx.Upgrade(prov, cur)
			} else {
				tx.Install(prov)
			}
			plan(prov)
		}
	}

	if len(missing) > 0 {
		return nil, &UnresolvableError{Missing: missing}
	}
	return tx, nil
}

// Update is one available update for an installed package.
type Update struct {
	Installed *rpm.Package
	Available *rpm.Package
	Repo      string // repository ID offering the update
}

func (u Update) String() string {
	return fmt.Sprintf("%s -> %s", u.Installed.NEVRA(), u.Available.EVR)
}

// CheckUpdates lists available updates for all installed packages — the
// "yum check-update" the paper recommends administrators run periodically.
func (r *Resolver) CheckUpdates() []Update {
	var out []Update
	for _, inst := range r.DB.Installed() {
		if inst != r.DB.Newest(inst.Name) {
			continue // only report against the newest installed build
		}
		// The offering repository comes straight from the set's shadowing
		// winner instead of a per-package scan over Enabled().
		best, repoID := r.Repos.BestWithRepo(inst.Name)
		if best == nil || best.EVR.Compare(inst.EVR) <= 0 {
			continue
		}
		out = append(out, Update{Installed: inst, Available: best, Repo: repoID})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Installed.Name < out[j].Installed.Name })
	return out
}
