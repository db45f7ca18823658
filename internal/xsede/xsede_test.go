package xsede

import (
	"maps"
	"slices"
	"strings"
	"testing"

	"xcbc/internal/rpm"
)

// fakeNode satisfies NodeState for isolated checker tests.
type fakeNode struct {
	db    *rpm.DB
	attrs map[string]string
}

func newFakeNode() *fakeNode {
	return &fakeNode{db: rpm.NewDB(), attrs: map[string]string{}}
}

func (f *fakeNode) Packages() *rpm.DB { return f.db }
func (f *fakeNode) Attr(key string) (string, bool) {
	v, ok := f.attrs[key]
	return v, ok
}

func (f *fakeNode) install(t *testing.T, name, evr string) {
	t.Helper()
	var tx rpm.Transaction
	tx.Install(rpm.NewPackage(name, evr, rpm.ArchX86_64).Build())
	if err := tx.Run(f.db); err != nil {
		t.Fatal(err)
	}
}

func TestCheckNodeEmpty(t *testing.T) {
	ref := StampedeReference()
	rep := CheckNode(ref, newFakeNode())
	if rep.Passed() == rep.Total() {
		t.Fatal("empty node cannot be compatible")
	}
	if rep.Score() != 0 {
		t.Fatalf("score = %v (version checks should not run for missing packages)", rep.Score())
	}
	if rep.Passed() != 0 || rep.Total() == 0 {
		t.Fatalf("passed/total = %d/%d", rep.Passed(), rep.Total())
	}
	if !strings.Contains(rep.Summary(), "FAIL") {
		t.Error("summary should list failures")
	}
}

func TestCheckNodeVersionEnforcement(t *testing.T) {
	ref := &Reference{
		Name:     "mini",
		Packages: map[string]string{"gcc": "4.4", "openmpi": "1.6"},
	}
	n := newFakeNode()
	n.install(t, "gcc", "4.4.7-11.el6")
	n.install(t, "openmpi", "1.5.4-1.el6") // too old
	rep := CheckNode(ref, n)
	if rep.Passed() == rep.Total() {
		t.Fatal("old openmpi should fail")
	}
	var sawVersionFail bool
	for _, c := range rep.Failures() {
		if c.Kind == "version" && strings.Contains(c.Detail, "openmpi") {
			sawVersionFail = true
		}
	}
	if !sawVersionFail {
		t.Fatalf("failures = %v", rep.Failures())
	}
	// 2 package-present checks + 1 version pass out of 4 checks.
	if rep.Passed() != 3 || rep.Total() != 4 {
		t.Fatalf("passed/total = %d/%d", rep.Passed(), rep.Total())
	}
}

func TestCheckNodeDirsAndCommands(t *testing.T) {
	ref := &Reference{
		Name:     "mini",
		Dirs:     []string{"/opt/apps"},
		Commands: map[string]string{"qsub": "torque"},
	}
	n := newFakeNode()
	rep := CheckNode(ref, n)
	if rep.Passed() != 0 {
		t.Fatal("missing dir and command should fail")
	}
	n.attrs["dir:/opt/apps"] = "present"
	n.install(t, "torque", "4.2.10-1.el6")
	rep = CheckNode(ref, n)
	if rep.Passed() != rep.Total() {
		t.Fatalf("should pass now: %s", rep.Summary())
	}
}

func TestStampedeReferenceShape(t *testing.T) {
	ref := StampedeReference()
	if len(ref.Packages) < 15 {
		t.Errorf("reference packages = %d", len(ref.Packages))
	}
	if _, ok := ref.Packages["torque"]; !ok {
		t.Error("default reference should require torque")
	}
	if ref.Commands["qsub"] != "torque" {
		t.Error("qsub should come from torque")
	}
}

func TestWithScheduler(t *testing.T) {
	ref := StampedeReference()
	slurm, err := ref.WithScheduler("slurm")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := slurm.Packages["torque"]; ok {
		t.Error("slurm reference must not require torque")
	}
	if _, ok := slurm.Packages["maui"]; ok {
		t.Error("slurm reference must not require maui")
	}
	if slurm.Commands["sbatch"] != "slurm" {
		t.Error("sbatch missing")
	}
	if _, ok := slurm.Commands["qsub"]; ok {
		t.Error("qsub should be dropped for slurm")
	}
	// Non-scheduler entries survive.
	if slurm.Packages["gcc"] != "4.4" || slurm.Commands["module"] != "environment-modules" {
		t.Error("non-scheduler entries lost")
	}

	sge, err := ref.WithScheduler("sge")
	if err != nil {
		t.Fatal(err)
	}
	if sge.Commands["qsub"] != "sge" {
		t.Error("sge qsub")
	}
	torque, err := ref.WithScheduler("torque")
	if err != nil {
		t.Fatal(err)
	}
	if torque.Packages["maui"] != "3.3" {
		t.Error("torque reference should keep maui")
	}
	if _, err := ref.WithScheduler("cron"); err == nil {
		t.Fatal("unknown scheduler should fail")
	}
}

// referenceFor is the reference the report path checks a scheduler choice
// against, built the way core.CompatReport builds it.
func referenceFor(t *testing.T, sched string) *Reference {
	t.Helper()
	ref := StampedeReference()
	if sched == "" {
		return ref
	}
	ref, err := ref.WithScheduler(sched)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestFlatReferencesMatchTheReference pins the tables CountNode walks
// against the Reference CheckNode is handed, entry by entry, so an edit to
// StampedeReference or WithScheduler cannot move one path without the
// other. The rules themselves cannot differ: both paths are visitors of
// one walk.
func TestFlatReferencesMatchTheReference(t *testing.T) {
	for _, sched := range []string{"", "torque", "slurm", "sge"} {
		ref, flat := referenceFor(t, sched), flatRefs()[sched]
		if flat == nil {
			t.Fatalf("no flat reference for scheduler %q", sched)
		}
		pkgs := map[string]string{}
		for _, p := range flat.pkgs {
			pkgs[p.name] = p.min
		}
		if len(flat.pkgs) != len(ref.Packages) || !maps.Equal(pkgs, ref.Packages) {
			t.Errorf("%q: flat packages %v, reference %v", sched, pkgs, ref.Packages)
		}
		var dirs []string
		for _, d := range flat.dirs {
			if d.attr != "dir:"+d.path {
				t.Errorf("%q: directory %s is looked up as %q", sched, d.path, d.attr)
			}
			dirs = append(dirs, d.path)
		}
		if !slices.Equal(dirs, ref.Dirs) {
			t.Errorf("%q: flat dirs %v, reference %v", sched, dirs, ref.Dirs)
		}
		cmds := map[string]string{}
		for _, c := range flat.cmds {
			cmds[c.name] = c.owner
		}
		if len(flat.cmds) != len(ref.Commands) || !maps.Equal(cmds, ref.Commands) {
			t.Errorf("%q: flat commands %v, reference %v", sched, cmds, ref.Commands)
		}
	}
	if n := len(flatRefs()); n != 4 {
		t.Errorf("%d flat references, want the 4 checked above", n)
	}
}

// TestCountNodeAgreesWithCheckNode compares the counts with the report's
// Passed and Total under each scheduler on a node that passes some checks,
// fails some version minimums and lacks the rest.
func TestCountNodeAgreesWithCheckNode(t *testing.T) {
	n := newFakeNode()
	n.install(t, "gcc", "4.4.7-4.el6")
	n.install(t, "openmpi", "1.5-1.el6") // older than required
	n.install(t, "lammps", "1.0-1.el6")  // no minimum
	n.install(t, "slurm", "14.03.1-1.el6")
	n.attrs["dir:/opt/apps"] = "present"
	for _, sched := range []string{"", "torque", "slurm", "sge"} {
		rep := CheckNode(referenceFor(t, sched), n)
		passed, total, err := CountNode(sched, n)
		if err != nil || passed != rep.Passed() || total != rep.Total() {
			t.Fatalf("scheduler %q: CountNode = %d/%d (%v), report %d/%d",
				sched, passed, total, err, rep.Passed(), rep.Total())
		}
		if passed == 0 || passed == total {
			t.Fatalf("scheduler %q: %d/%d checks pass; the node should pass some and fail some", sched, passed, total)
		}
	}
}

func TestCountNodeUnknownScheduler(t *testing.T) {
	_, want := StampedeReference().WithScheduler("cron")
	passed, total, err := CountNode("cron", newFakeNode())
	if err == nil || err.Error() != want.Error() || passed != 0 || total != 0 {
		t.Fatalf("CountNode(cron) = %d/%d, %v; want 0/0 and %v", passed, total, err, want)
	}
}
