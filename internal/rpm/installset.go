package rpm

import (
	"errors"
	"fmt"
)

// InstallSet is a pre-validated package set that can be adopted by an empty
// DB in one step. It exists for fleet-scale provisioning: every node of
// every member installs the same distribution list, so validating the set
// once (dup/file/requires/conflicts — the same battery Transaction.Check
// runs) and then stamping the resulting indexes onto each node avoids the
// per-node Clone + InsertSorted + O(n²) conflict scan that dominated heap
// profiles at 100+ members.
//
// The set is immutable after NewInstallSet and safe to share across
// goroutines. Its per-name index slices are capacity-capped sub-slices of
// one shared arena, so a DB that adopted the set and later mutates
// (day-2 installs/erases) triggers copy-on-write appends and never touches
// the shared backing.
type InstallSet struct {
	pkgs     []*Package            // sorted by PackageLess; shared, do not modify
	byName   map[string][]*Package // name -> builds, newest first, cap-capped
	provides map[string][]*Package // capability name -> providers, cap-capped
	files    map[string]string     // file path -> owning package NEVRA
}

// NewInstallSet validates pkgs as a single bulk install onto an empty node
// and builds the shared DB indexes. It reports the same classes of problems
// Transaction.Check would: duplicate NEVRAs, file conflicts, unmet
// requirements, and conflicting pairs. All problems are joined into one
// error rather than stopping at the first.
func NewInstallSet(pkgs []*Package) (*InstallSet, error) {
	if len(pkgs) == 0 {
		return nil, ErrEmptyTransaction
	}
	sorted := make([]*Package, len(pkgs))
	copy(sorted, pkgs)
	SortPackages(sorted)

	s := &InstallSet{
		pkgs:     sorted,
		byName:   make(map[string][]*Package),
		provides: make(map[string][]*Package),
		files:    make(map[string]string),
	}

	var problems []error
	// Group consecutive same-name runs into cap-capped arena sub-slices;
	// PackageLess order means each run is already newest-first, matching
	// the order InsertSorted maintains.
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sorted[j].Name == sorted[i].Name {
			j++
		}
		for k := i + 1; k < j; k++ {
			if sorted[k].EVR.Compare(sorted[k-1].EVR) == 0 && sorted[k].Arch == sorted[k-1].Arch {
				problems = append(problems, fmt.Errorf("rpm: %s is already installed", sorted[k].NEVRA()))
			}
		}
		s.byName[sorted[i].Name] = sorted[i:j:j]
		i = j
	}
	for _, p := range sorted {
		for _, name := range p.ProvideNames() {
			s.provides[name] = append(s.provides[name], p)
		}
		for _, f := range p.Files {
			if owner, ok := s.files[f]; ok {
				problems = append(problems, fmt.Errorf("rpm: file %s from %s conflicts with file from %s", f, p.NEVRA(), owner))
				continue
			}
			s.files[f] = p.NEVRA()
		}
	}
	// Cap every provider list so adopters' appends copy-on-write.
	for name, ps := range s.provides {
		s.provides[name] = ps[:len(ps):len(ps)]
	}
	if len(problems) > 0 {
		return nil, fmt.Errorf("rpm: install set invalid: %w", errors.Join(problems...))
	}

	// Dependency closure must hold within the set.
	for _, p := range sorted {
		for _, req := range p.Requires {
			if !s.hasProvider(req) {
				problems = append(problems, fmt.Errorf("rpm: unmet requirement after transaction: %s", req))
			}
		}
	}
	// No conflicting pair may exist. Packages declaring no conflicts cannot
	// match each other, so skip those pairs outright.
	for i := 0; i < len(sorted); i++ {
		for j := i + 1; j < len(sorted); j++ {
			if len(sorted[i].Conflicts) == 0 && len(sorted[j].Conflicts) == 0 {
				continue
			}
			if sorted[i].ConflictsWith(sorted[j]) {
				problems = append(problems, fmt.Errorf("rpm: %s conflicts with %s",
					sorted[i].NEVRA(), sorted[j].NEVRA()))
			}
		}
	}
	if len(problems) > 0 {
		return nil, fmt.Errorf("rpm: install set invalid: %w", errors.Join(problems...))
	}
	return s, nil
}

// Packages returns the set's packages sorted by PackageLess. The slice is
// shared and must not be modified.
func (s *InstallSet) Packages() []*Package { return s.pkgs }

// AdoptSet bulk-installs a pre-validated set into an empty database. The
// DB aliases the set's index maps outright — adoption allocates nothing
// per node, which is what lets a 10k-member fleet hold 50k node databases
// of the same distribution — and the first later mutation (a day-2
// install or erase) detaches onto private copies, leaving the set and
// every other adopter untouched.
func (db *DB) AdoptSet(s *InstallSet) error {
	if db.Len() != 0 {
		return errors.New("rpm: AdoptSet requires an empty database")
	}
	db.byName = s.byName
	db.provides = s.provides
	db.files = s.files
	db.installed = s.pkgs
	db.shared = true
	return nil
}

// hasProvider mirrors DB.HasProvider against the set's own provider index.
func (s *InstallSet) hasProvider(req Capability) bool {
	for _, p := range s.provides[req.Name] {
		if p.ProvidesCap(req) {
			return true
		}
	}
	return false
}
