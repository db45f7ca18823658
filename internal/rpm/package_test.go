package rpm

import (
	"math/rand/v2"
	"testing"
)

func TestCapabilitySatisfiesUnversioned(t *testing.T) {
	prov := Cap("openmpi")
	if !prov.Satisfies(Cap("openmpi")) {
		t.Error("name match should satisfy")
	}
	if prov.Satisfies(Cap("mpich2")) {
		t.Error("different name should not satisfy")
	}
	if !prov.Satisfies(CapVer("openmpi", GE, "1.6")) {
		t.Error("unversioned provide satisfies any constraint on same name")
	}
	if !CapVer("openmpi", EQ, "1.6-4").Satisfies(Cap("openmpi")) {
		t.Error("versioned provide satisfies unversioned requirement")
	}
}

func TestCapabilitySatisfiesVersioned(t *testing.T) {
	cases := []struct {
		prov, req Capability
		want      bool
	}{
		{CapVer("gcc", EQ, "4.4.7"), CapVer("gcc", GE, "4.4"), true},
		{CapVer("gcc", EQ, "4.4.7"), CapVer("gcc", GE, "4.8"), false},
		{CapVer("gcc", EQ, "4.4.7"), CapVer("gcc", LT, "4.8"), true},
		{CapVer("gcc", EQ, "4.4.7"), CapVer("gcc", LT, "4.4"), false},
		{CapVer("gcc", EQ, "4.4.7"), CapVer("gcc", EQ, "4.4.7"), true},
		{CapVer("gcc", EQ, "4.4.7"), CapVer("gcc", EQ, "4.4.8"), false},
		{CapVer("gcc", EQ, "4.4.7"), CapVer("gcc", GT, "4.4.7"), false},
		{CapVer("gcc", EQ, "4.4.7"), CapVer("gcc", LE, "4.4.7"), true},
		// Range overlap: provider >= 2 satisfies requirement <= 3.
		{CapVer("hdf5", GE, "2"), CapVer("hdf5", LE, "3"), true},
		// Provider >= 4 cannot satisfy requirement < 3.
		{CapVer("hdf5", GE, "4"), CapVer("hdf5", LT, "3"), false},
		// Provider < 3 satisfies requirement < 3 (e.g. version 2 is in both).
		{CapVer("hdf5", LT, "3"), CapVer("hdf5", LT, "3"), true},
		{CapVer("hdf5", LE, "2"), CapVer("hdf5", GE, "3"), false},
		{CapVer("hdf5", LE, "3"), CapVer("hdf5", GE, "3"), true},
		{CapVer("hdf5", GT, "3"), CapVer("hdf5", EQ, "3"), false},
		{CapVer("hdf5", GE, "3"), CapVer("hdf5", EQ, "3"), true},
	}
	for _, c := range cases {
		if got := c.prov.Satisfies(c.req); got != c.want {
			t.Errorf("(%s).Satisfies(%s) = %v, want %v", c.prov, c.req, got, c.want)
		}
	}
}

func TestCapabilitySatisfiesPropertyEQWitness(t *testing.T) {
	// If provider is EQ v and requirement is any relation, Satisfies must
	// agree with directly evaluating "v rel reqVersion".
	versions := []string{"1.0", "1.5", "2.0", "2.0-1", "2.0-2", "3.0~rc1", "3.0"}
	rels := []Relation{EQ, LT, LE, GT, GE}
	for _, pv := range versions {
		for _, rv := range versions {
			for _, rel := range rels {
				prov := CapVer("x", EQ, pv)
				req := CapVer("x", rel, rv)
				cmp := MustParseEVR(pv).Compare(MustParseEVR(rv))
				var want bool
				switch rel {
				case EQ:
					want = cmp == 0
				case LT:
					want = cmp < 0
				case LE:
					want = cmp <= 0
				case GT:
					want = cmp > 0
				case GE:
					want = cmp >= 0
				}
				if got := prov.Satisfies(req); got != want {
					t.Errorf("EQ %s satisfies (%s %s) = %v, want %v", pv, rel, rv, got, want)
				}
			}
		}
	}
}

func TestParseCapability(t *testing.T) {
	cases := []struct {
		in   string
		want string
		err  bool
	}{
		{"openmpi", "openmpi", false},
		{"gcc >= 4.4", "gcc >= 4.4", false},
		{"hdf5 = 1.8.9-3", "hdf5 = 1.8.9-3", false},
		{"hdf5 == 1.8.9", "hdf5 = 1.8.9", false},
		{"x < 2", "x < 2", false},
		{"x <= 2", "x <= 2", false},
		{"x > 2", "x > 2", false},
		{"x ~ 2", "", true},
		{"a b c d", "", true},
		{"x >= ", "", true},
	}
	for _, c := range cases {
		got, err := ParseCapability(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParseCapability(%q) should fail", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseCapability(%q): %v", c.in, err)
			continue
		}
		if got.String() != c.want {
			t.Errorf("ParseCapability(%q) = %q, want %q", c.in, got.String(), c.want)
		}
	}
}

func TestPackageIdentity(t *testing.T) {
	p := NewPackage("openmpi", "1.6.4-3.el6", ArchX86_64).Summary("MPI").Build()
	if p.NEVRA() != "openmpi-1.6.4-3.el6.x86_64" {
		t.Errorf("NEVRA = %q", p.NEVRA())
	}
	if !p.ProvidesCap(Cap("openmpi")) {
		t.Error("package should provide its own name")
	}
	if !p.ProvidesCap(CapVer("openmpi", GE, "1.6")) {
		t.Error("package should provide its own name at its EVR")
	}
	if p.ProvidesCap(CapVer("openmpi", GE, "1.7")) {
		t.Error("package should not satisfy higher version requirement")
	}
}

func TestPackageExplicitProvides(t *testing.T) {
	p := NewPackage("openmpi", "1.6.4-3", ArchX86_64).
		Provides(Cap("mpi"), CapVer("libmpi.so.1()(64bit)", EQ, "1")).
		Build()
	if !p.ProvidesCap(Cap("mpi")) {
		t.Error("explicit provide not honored")
	}
}

func TestPackageConflicts(t *testing.T) {
	torque := NewPackage("torque", "4.2.10-1", ArchX86_64).Conflicts(Cap("slurm")).Build()
	slurm := NewPackage("slurm", "14.03-1", ArchX86_64).Build()
	other := NewPackage("ganglia", "3.6-1", ArchX86_64).Build()
	if !torque.ConflictsWith(slurm) {
		t.Error("torque should conflict with slurm")
	}
	if !slurm.ConflictsWith(torque) {
		t.Error("conflict should be symmetric")
	}
	if torque.ConflictsWith(other) {
		t.Error("no conflict declared with ganglia")
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := NewPackage("x", "1-1", ArchX86_64).Requires(Cap("y")).Files("/usr/bin/x").Build()
	q := p.Clone()
	q.Requires[0] = Cap("z")
	q.Files[0] = "/usr/bin/z"
	if p.Requires[0].Name != "y" || p.Files[0] != "/usr/bin/x" {
		t.Error("Clone shares slices with original")
	}
}

func TestSortPackagesNewestFirst(t *testing.T) {
	ps := []*Package{
		NewPackage("b", "1.0-1", ArchX86_64).Build(),
		NewPackage("a", "2.0-1", ArchX86_64).Build(),
		NewPackage("a", "2.0-3", ArchX86_64).Build(),
		NewPackage("a", "1:1.0-1", ArchX86_64).Build(),
	}
	SortPackages(ps)
	want := []string{"a-1:1.0-1.x86_64", "a-2.0-3.x86_64", "a-2.0-1.x86_64", "b-1.0-1.x86_64"}
	for i, w := range want {
		if ps[i].NEVRA() != w {
			t.Errorf("sorted[%d] = %s, want %s", i, ps[i].NEVRA(), w)
		}
	}
}

func TestRelationString(t *testing.T) {
	for rel, want := range map[Relation]string{Any: "", EQ: "=", LT: "<", LE: "<=", GT: ">", GE: ">="} {
		if rel.String() != want {
			t.Errorf("%d.String() = %q, want %q", rel, rel.String(), want)
		}
	}
}

func TestSatisfiesPropertyRandomRanges(t *testing.T) {
	// Property: if Satisfies reports true for two versioned caps, there must
	// exist a concrete witness version (from a dense sample) in both ranges —
	// and if it reports false, there must be none. The witness sample is
	// strictly denser than the capability boundary lattice: it contains every
	// boundary, a point between each consecutive pair, and points beyond each
	// end, so every nonempty overlap region contains a witness.
	capVersions := []string{"1.0", "2.0", "3.0", "4.0"}
	versions := []string{"0.5", "1.0", "1.5", "2.0", "2.5", "3.0", "3.5", "4.0", "4.5"}
	inRange := func(c Capability, v string) bool {
		cmp := MustParseEVR(v).Compare(c.EVR)
		switch c.Rel {
		case EQ:
			return cmp == 0
		case LT:
			return cmp < 0
		case LE:
			return cmp <= 0
		case GT:
			return cmp > 0
		case GE:
			return cmp >= 0
		}
		return true
	}
	rels := []Relation{EQ, LT, LE, GT, GE}
	rng := rand.New(rand.NewPCG(7, 0))
	for range 4000 {
		prov := Capability{Name: "x", Rel: rels[rng.IntN(len(rels))], EVR: MustParseEVR(capVersions[rng.IntN(len(capVersions))])}
		req := Capability{Name: "x", Rel: rels[rng.IntN(len(rels))], EVR: MustParseEVR(capVersions[rng.IntN(len(capVersions))])}
		witness := false
		for _, v := range versions {
			if inRange(prov, v) && inRange(req, v) {
				witness = true
				break
			}
		}
		// The sampled witness set is dense over the version lattice used, so
		// Satisfies must agree with witness existence exactly.
		if got := prov.Satisfies(req); got != witness {
			t.Fatalf("(%s).Satisfies(%s) = %v, want %v", prov, req, got, witness)
		}
	}
}
