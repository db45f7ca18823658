package repo

import (
	"testing"

	"xcbc/internal/rpm"
)

func pkg(name, evr string) *rpm.Package {
	return rpm.NewPackage(name, evr, rpm.ArchX86_64).Build()
}

func TestPublishAndQuery(t *testing.T) {
	r := New("xsede", "XSEDE NIT", "http://cb-repo.iu.xsede.org/xsederepo")
	if err := r.Publish(pkg("openmpi", "1.6.4-3"), pkg("gcc", "4.4.7-11")); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	if r.Newest("openmpi") == nil {
		t.Fatal("openmpi missing")
	}
}

func TestPublishDuplicateRejected(t *testing.T) {
	r := New("x", "x", "")
	if err := r.Publish(pkg("a", "1-1")); err != nil {
		t.Fatal(err)
	}
	if err := r.Publish(pkg("a", "1-1")); err == nil {
		t.Fatal("duplicate publish should fail")
	}
	if err := r.Publish(pkg("a", "1-2")); err != nil {
		t.Fatalf("new release should publish: %v", err)
	}
}

func TestRetract(t *testing.T) {
	r := New("x", "x", "")
	r.Publish(pkg("a", "1-1"))
	rev := r.Revision()
	if err := r.Retract("a-1-1.x86_64"); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatal("retract did not remove")
	}
	if r.Revision() == rev {
		t.Fatal("revision should change on retract")
	}
	if err := r.Retract("a-1-1.x86_64"); err == nil {
		t.Fatal("retracting absent package should fail")
	}
}

func TestNewestAcrossBuilds(t *testing.T) {
	r := New("x", "x", "")
	r.Publish(pkg("R", "3.0.1-1"), pkg("R", "3.1.2-1"), pkg("R", "3.0.2-1"))
	if got := r.Newest("R").EVR.String(); got != "3.1.2-1" {
		t.Fatalf("Newest = %s", got)
	}
	if got := len(r.Get("R")); got != 3 {
		t.Fatalf("Get len = %d", got)
	}
}

func TestWhoProvides(t *testing.T) {
	r := New("x", "x", "")
	mpi := rpm.NewPackage("openmpi", "1.6.4-3", rpm.ArchX86_64).Provides(rpm.Cap("mpi")).Build()
	r.Publish(mpi, pkg("gcc", "4.4.7-11"))
	got := r.WhoProvides(rpm.Cap("mpi"))
	if len(got) != 1 || got[0].Name != "openmpi" {
		t.Fatalf("WhoProvides = %v", got)
	}
}

func TestSetPriorityShadowing(t *testing.T) {
	// The paper's XNIT setup: base CentOS repo plus the XSEDE repo with
	// yum-plugin-priorities. A higher-priority (lower number) repo carrying a
	// name hides other repos' builds of that name, even newer ones.
	base := New("base", "CentOS Base", "")
	xsede := New("xsede", "XSEDE NIT", "")
	base.Publish(pkg("python", "2.6.6-52"))
	xsede.Publish(pkg("python", "2.7.5-1")) // newer but lower priority
	xsede.Publish(pkg("lammps", "20140801-1"))

	s := NewSet(
		Config{Repo: base, Priority: 10, Enabled: true},
		Config{Repo: xsede, Priority: 50, Enabled: true},
	)
	if got := s.Best("python").EVR.String(); got != "2.6.6-52" {
		t.Fatalf("priority shadowing failed: Best(python) = %s", got)
	}
	// Names only in the XSEDE repo resolve from it.
	if got := s.Best("lammps"); got == nil {
		t.Fatal("lammps should resolve from xsede repo")
	}
}

func TestSetWithoutShadowingPicksNewest(t *testing.T) {
	a := New("a", "A", "")
	b := New("b", "B", "")
	a.Publish(pkg("hdf5", "1.8.9-3"))
	b.Publish(pkg("hdf5", "1.8.12-1"))
	s := NewSet(
		Config{Repo: a, Priority: 50, Enabled: true},
		Config{Repo: b, Priority: 50, Enabled: true},
	)
	if got := s.Best("hdf5").EVR.String(); got != "1.8.12-1" {
		t.Fatalf("equal priority should pick newest, got %s", got)
	}
}

func TestSetDisabledRepoInvisible(t *testing.T) {
	a := New("a", "A", "")
	a.Publish(pkg("x", "1-1"))
	s := NewSet(Config{Repo: a, Priority: 50, Enabled: false})
	if s.Best("x") != nil {
		t.Fatal("disabled repo should be invisible")
	}
	if !s.Enable("a", true) {
		t.Fatal("Enable failed to find repo")
	}
	if s.Best("x") == nil {
		t.Fatal("enabled repo should be visible")
	}
	if s.Enable("missing", true) {
		t.Fatal("Enable of unknown repo should report false")
	}
}

func TestSetDefaultPriority(t *testing.T) {
	a := New("a", "A", "")
	s := NewSet(Config{Repo: a, Enabled: true})
	if got := s.Enabled()[0].Priority; got != DefaultPriority {
		t.Fatalf("default priority = %d, want %d", got, DefaultPriority)
	}
}

func TestBestProviderPrefersNameMatch(t *testing.T) {
	r := New("x", "x", "")
	mpi := rpm.NewPackage("openmpi", "1.6.4-3", rpm.ArchX86_64).Provides(rpm.Cap("mpi")).Build()
	compat := rpm.NewPackage("mpi", "0.1-1", rpm.ArchX86_64).Build()
	r.Publish(mpi, compat)
	s := NewSet(Config{Repo: r, Enabled: true})
	if got := s.BestProvider(rpm.Cap("mpi")); got.Name != "mpi" {
		t.Fatalf("BestProvider should prefer exact name, got %s", got.Name)
	}
	if got := s.BestProvider(rpm.Cap("openmpi")); got.Name != "openmpi" {
		t.Fatalf("BestProvider(openmpi) = %v", got)
	}
	if s.BestProvider(rpm.Cap("nothing")) != nil {
		t.Fatal("BestProvider of unknown cap should be nil")
	}
}
