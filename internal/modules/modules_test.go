package modules

import (
	"strings"
	"testing"

	"xcbc/internal/rpm"
)

func sysWith(mods ...*Modulefile) *System {
	s := &System{files: make(map[string][]*Modulefile)}
	for _, m := range mods {
		s.add(m)
	}
	return s
}

func mod(name, version string, def bool) *Modulefile {
	return &Modulefile{
		Name: name, Version: version, Default: def,
		PrependPath: map[string][]string{"PATH": {"/opt/apps/" + name + "/" + version + "/bin"}},
	}
}

func TestAvailSorted(t *testing.T) {
	s := sysWith(mod("openmpi", "1.6.4", true), mod("gcc", "4.4.7", false))
	got := s.Avail()
	if len(got) != 2 || got[0] != "gcc/4.4.7" || got[1] != "openmpi/1.6.4 (default)" {
		t.Fatalf("Avail = %v", got)
	}
}

func TestResolve(t *testing.T) {
	s := sysWith(mod("openmpi", "1.6.4", false), mod("openmpi", "1.8.1", false))
	m, err := s.Resolve("openmpi/1.6.4")
	if err != nil || m.Version != "1.6.4" {
		t.Fatalf("Resolve exact = %v, %v", m, err)
	}
	// Bare name without default picks newest by rpm version comparison.
	m, err = s.Resolve("openmpi")
	if err != nil || m.Version != "1.8.1" {
		t.Fatalf("Resolve newest = %v, %v", m, err)
	}
	// Marked default wins over newest.
	s2 := sysWith(mod("openmpi", "1.6.4", true), mod("openmpi", "1.8.1", false))
	m, err = s2.Resolve("openmpi")
	if err != nil || m.Version != "1.6.4" {
		t.Fatalf("Resolve default = %v, %v", m, err)
	}
	if _, err := s.Resolve("ghost"); err == nil {
		t.Fatal("unknown module should fail")
	}
	if _, err := s.Resolve("openmpi/9.9"); err == nil {
		t.Fatal("unknown version should fail")
	}
}

func TestAddReplacesSameVersion(t *testing.T) {
	replacement := mod("gcc", "4.4.7", false)
	s := sysWith(mod("gcc", "4.4.7", false), replacement)
	if len(s.Avail()) != 1 {
		t.Fatalf("Avail = %v", s.Avail())
	}
	m, _ := s.Resolve("gcc/4.4.7")
	if m != replacement {
		t.Fatal("replacement not applied")
	}
}

func TestLoadMutatesEnvironment(t *testing.T) {
	s := sysWith(mod("openmpi", "1.6.4", true))
	sess := s.NewSession(map[string]string{"PATH": "/usr/bin:/bin"})
	if err := sess.Load("openmpi"); err != nil {
		t.Fatal(err)
	}
	if got := sess.Env("PATH"); got != "/opt/apps/openmpi/1.6.4/bin:/usr/bin:/bin" {
		t.Fatalf("PATH = %q", got)
	}
	if got := sess.List(); len(got) != 1 || got[0] != "openmpi/1.6.4" {
		t.Fatalf("List = %v", got)
	}
}

func TestLoadTwiceRejected(t *testing.T) {
	s := sysWith(mod("openmpi", "1.6.4", false), mod("openmpi", "1.8.1", false))
	sess := s.NewSession(nil)
	if err := sess.Load("openmpi/1.6.4"); err != nil {
		t.Fatal(err)
	}
	if err := sess.Load("openmpi/1.8.1"); err == nil {
		t.Fatal("loading a second version of the same module should fail")
	}
}

func TestConflicts(t *testing.T) {
	ompi := mod("openmpi", "1.6.4", true)
	ompi.Conflicts = []string{"mpich2"}
	mpich := mod("mpich2", "1.9", true)
	s := sysWith(ompi, mpich)
	sess := s.NewSession(nil)
	if err := sess.Load("openmpi"); err != nil {
		t.Fatal(err)
	}
	if err := sess.Load("mpich2"); err == nil || !strings.Contains(err.Error(), "conflicts") {
		t.Fatalf("conflict not enforced: %v", err)
	}
	// Symmetric: declare on the other side only.
	s2 := sysWith(mod("openmpi", "1.6.4", true), func() *Modulefile {
		m := mod("mpich2", "1.9", true)
		m.Conflicts = []string{"openmpi"}
		return m
	}())
	sess2 := s2.NewSession(nil)
	sess2.Load("openmpi")
	if err := sess2.Load("mpich2"); err == nil {
		t.Fatal("reverse conflict not enforced")
	}
}

func TestPrereqs(t *testing.T) {
	fftw := mod("fftw", "3.3.3", true)
	fftw.Prereqs = []string{"openmpi"}
	s := sysWith(fftw, mod("openmpi", "1.6.4", true))
	sess := s.NewSession(nil)
	if err := sess.Load("fftw"); err == nil {
		t.Fatal("prereq not enforced")
	}
	sess.Load("openmpi")
	if err := sess.Load("fftw"); err != nil {
		t.Fatal(err)
	}
}

func TestSetEnv(t *testing.T) {
	m := mod("R", "3.0.1", true)
	m.SetEnv = map[string]string{"R_HOME": "/opt/apps/R/3.0.1"}
	s := sysWith(m)
	sess := s.NewSession(nil)
	sess.Load("R")
	if sess.Env("R_HOME") != "/opt/apps/R/3.0.1" {
		t.Fatal("SetEnv not applied")
	}
}

func TestGenerateFromPackages(t *testing.T) {
	db := rpm.NewDB()
	var tx rpm.Transaction
	tx.Install(rpm.NewPackage("gromacs", "4.6.5-2.el6", rpm.ArchX86_64).
		Summary("GROMACS molecular dynamics").Category("Scientific Applications").Build())
	tx.Install(rpm.NewPackage("openmpi", "1.6.4-3.el6", rpm.ArchX86_64).
		Category("Compilers, libraries, and programming").Build())
	tx.Install(rpm.NewPackage("bash", "4.1.2-15.el6", rpm.ArchX86_64).
		Category("Basics").Build())
	if err := tx.Run(db); err != nil {
		t.Fatal(err)
	}
	sys := FromPackages(db.Installed(), "Scientific Applications", "Compilers, libraries, and programming")
	avail := sys.Avail()
	if len(avail) != 2 {
		t.Fatalf("Avail = %v (bash should be excluded)", avail)
	}
	sess := sys.NewSession(map[string]string{"PATH": "/usr/bin"})
	if err := sess.Load("gromacs"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sess.Env("PATH"), "/opt/apps/gromacs/4.6.5/bin") {
		t.Fatalf("PATH = %q", sess.Env("PATH"))
	}
	if sess.Env("XSEDE_GROMACS_DIR") != "/opt/apps/gromacs/4.6.5" {
		t.Fatalf("XSEDE_GROMACS_DIR = %q", sess.Env("XSEDE_GROMACS_DIR"))
	}
	// No category filter: everything gets a module.
	all := FromPackages(db.Installed())
	if len(all.Avail()) != 3 {
		t.Fatalf("unfiltered Avail = %v", all.Avail())
	}
}
