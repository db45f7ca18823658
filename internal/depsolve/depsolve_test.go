package depsolve

import (
	"errors"
	"strings"
	"testing"
	"time"

	"xcbc/internal/repo"
	"xcbc/internal/rpm"
)

// fixture builds a small repo universe resembling an XSEDE stack slice.
func fixture() (*repo.Set, *rpm.DB) {
	xsede := repo.New("xsede", "XSEDE NIT", "")
	xsede.Publish(
		rpm.NewPackage("gcc", "4.4.7-11.el6", rpm.ArchX86_64).Build(),
		rpm.NewPackage("openmpi", "1.6.4-3.el6", rpm.ArchX86_64).
			Provides(rpm.Cap("mpi")).
			Requires(rpm.CapVer("gcc", rpm.GE, "4.4")).
			Build(),
		rpm.NewPackage("fftw", "3.3.3-5.el6", rpm.ArchX86_64).
			Requires(rpm.Cap("mpi")).
			Build(),
		rpm.NewPackage("gromacs", "4.6.5-2.el6", rpm.ArchX86_64).
			Requires(rpm.Cap("fftw"), rpm.Cap("openmpi")).
			Build(),
		rpm.NewPackage("lammps", "20140801-1.el6", rpm.ArchX86_64).
			Requires(rpm.Cap("mpi"), rpm.Cap("ghostlib")).
			Build(),
	)
	set := repo.NewSet(repo.Config{Repo: xsede, Priority: 50, Enabled: true})
	return set, rpm.NewDB()
}

func TestInstallTransitiveClosure(t *testing.T) {
	set, db := fixture()
	r := New(set, db)
	tx, err := r.Install("gromacs")
	if err != nil {
		t.Fatal(err)
	}
	// gromacs -> fftw, openmpi; fftw -> mpi (openmpi); openmpi -> gcc.
	if tx.Len() != 4 {
		t.Fatalf("tx = %s (len %d), want 4 elements", tx, tx.Len())
	}
	if err := tx.Run(db); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"gromacs", "fftw", "openmpi", "gcc"} {
		if !db.Has(name) {
			t.Errorf("%s not installed", name)
		}
	}
}

func TestInstallAlreadySatisfiedIsEmpty(t *testing.T) {
	set, db := fixture()
	r := New(set, db)
	tx, _ := r.Install("gcc")
	if err := tx.Run(db); err != nil {
		t.Fatal(err)
	}
	tx2, err := r.Install("gcc")
	if err != nil {
		t.Fatal(err)
	}
	if tx2.Len() != 0 {
		t.Fatalf("reinstall should be empty, got %s", tx2)
	}
}

func TestInstallSharedDepPulledOnce(t *testing.T) {
	set, db := fixture()
	r := New(set, db)
	tx, err := r.Install("fftw", "openmpi")
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, op := range tx.Ops {
		count[op.Pkg.Name]++
	}
	for name, n := range count {
		if n != 1 {
			t.Errorf("%s planned %d times", name, n)
		}
	}
	if err := tx.Run(db); err != nil {
		t.Fatal(err)
	}
}

func TestInstallMissingPackage(t *testing.T) {
	set, db := fixture()
	r := New(set, db)
	_, err := r.Install("nonexistent")
	var ue *UnresolvableError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want UnresolvableError", err)
	}
	if len(ue.Missing) != 1 || ue.Missing[0].Req.Name != "nonexistent" {
		t.Fatalf("Missing = %v", ue.Missing)
	}
}

func TestInstallMissingDependencyReportsChain(t *testing.T) {
	set, db := fixture()
	r := New(set, db)
	_, err := r.Install("lammps") // requires ghostlib, not published
	var ue *UnresolvableError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v", err)
	}
	found := false
	for _, m := range ue.Missing {
		if m.Req.Name == "ghostlib" && strings.Contains(m.Needed, "lammps") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing chain not reported: %v", ue.Missing)
	}
	if !strings.Contains(err.Error(), "ghostlib") {
		t.Fatalf("error text should name the capability: %v", err)
	}
}

func TestInstallUpgradesInstalledOlder(t *testing.T) {
	set, db := fixture()
	old := rpm.NewPackage("gcc", "4.4.0-1.el6", rpm.ArchX86_64).Build()
	var tx0 rpm.Transaction
	tx0.Install(old)
	if err := tx0.Run(db); err != nil {
		t.Fatal(err)
	}
	r := New(set, db)
	tx, err := r.Install("gcc")
	if err != nil {
		t.Fatal(err)
	}
	if tx.Len() != 1 || tx.Ops[0].Kind != rpm.OpUpgrade {
		t.Fatalf("tx = %s, want single upgrade", tx)
	}
	if err := tx.Run(db); err != nil {
		t.Fatal(err)
	}
	if got := db.Newest("gcc").EVR.String(); got != "4.4.7-11.el6" {
		t.Fatalf("gcc = %s", got)
	}
	if db.Len() != 1 {
		t.Fatalf("old gcc should be gone, len = %d", db.Len())
	}
}

func TestCheckUpdates(t *testing.T) {
	set, db := fixture()
	r := New(set, db)
	tx, _ := r.Install("gcc")
	tx.Run(db)
	if got := r.CheckUpdates(); len(got) != 0 {
		t.Fatalf("no updates expected, got %v", got)
	}
	// Publish a newer gcc.
	for _, c := range set.Enabled() {
		c.Repo.Publish(rpm.NewPackage("gcc", "4.4.7-16.el6", rpm.ArchX86_64).Build())
	}
	ups := r.CheckUpdates()
	if len(ups) != 1 || ups[0].Available.EVR.String() != "4.4.7-16.el6" {
		t.Fatalf("CheckUpdates = %v", ups)
	}
	if ups[0].Repo != "xsede" {
		t.Fatalf("update repo = %q", ups[0].Repo)
	}
	if !strings.Contains(ups[0].String(), "->") {
		t.Fatal("Update.String malformed")
	}
}

func TestUpdateAll(t *testing.T) {
	set, db := fixture()
	r := New(set, db)
	tx, _ := r.Install("gromacs")
	tx.Run(db)
	for _, c := range set.Enabled() {
		c.Repo.Publish(
			rpm.NewPackage("gcc", "4.4.7-16.el6", rpm.ArchX86_64).Build(),
			rpm.NewPackage("fftw", "3.3.4-1.el6", rpm.ArchX86_64).Requires(rpm.Cap("mpi")).Build(),
		)
	}
	// "yum update" with no arguments is the update check under auto-apply.
	n := r.RunUpdateCheck(PolicyAutoApply, time.Time{})
	if n.ApplyErr != nil {
		t.Fatal(n.ApplyErr)
	}
	if len(n.Applied) != 2 {
		t.Fatalf("applied %v, want 2 upgrades", n.Applied)
	}
	if db.Newest("fftw").EVR.String() != "3.3.4-1.el6" {
		t.Fatal("fftw not upgraded")
	}
	// Second run is a no-op.
	if n := r.RunUpdateCheck(PolicyAutoApply, time.Time{}); n.ApplyErr != nil || len(n.Applied) != 0 {
		t.Fatalf("second update should be empty, got %v (%v)", n.Applied, n.ApplyErr)
	}
}

func TestPriorityShadowingInResolution(t *testing.T) {
	// Vendor repo carries python at priority 10; XNIT carries a newer python
	// at 50. Resolution must keep the vendor's python (the paper's "without
	// changing the pre-existing cluster setup" guarantee).
	vendor := repo.New("vendor", "Vendor", "")
	xnit := repo.New("xsede", "XSEDE NIT", "")
	vendor.Publish(rpm.NewPackage("python", "2.6.6-52", rpm.ArchX86_64).Build())
	xnit.Publish(
		rpm.NewPackage("python", "2.7.5-1", rpm.ArchX86_64).Build(),
		rpm.NewPackage("numpy", "1.7.1-1", rpm.ArchX86_64).Requires(rpm.Cap("python")).Build(),
	)
	set := repo.NewSet(
		repo.Config{Repo: vendor, Priority: 10, Enabled: true},
		repo.Config{Repo: xnit, Priority: 50, Enabled: true},
	)
	db := rpm.NewDB()
	r := New(set, db)
	tx, err := r.Install("numpy")
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Run(db); err != nil {
		t.Fatal(err)
	}
	if got := db.Newest("python").EVR.String(); got != "2.6.6-52" {
		t.Fatalf("python = %s, vendor build should win by priority", got)
	}
}

func now() time.Time { return time.Date(2015, 3, 1, 6, 0, 0, 0, time.UTC) }

func TestPolicyNotifyDoesNotApply(t *testing.T) {
	set, db := fixture()
	r := New(set, db)
	tx, _ := r.Install("gcc")
	tx.Run(db)
	for _, c := range set.Enabled() {
		c.Repo.Publish(rpm.NewPackage("gcc", "4.4.7-16.el6", rpm.ArchX86_64).Build())
	}
	n := r.RunUpdateCheck(PolicyNotify, now())
	if len(n.Pending) != 1 || len(n.Applied) != 0 {
		t.Fatalf("notification = %+v", n)
	}
	if db.Newest("gcc").EVR.String() != "4.4.7-11.el6" {
		t.Fatal("notify policy must not apply updates")
	}
	if !strings.Contains(n.Summary(), "pending review") {
		t.Fatalf("summary:\n%s", n.Summary())
	}
}

func TestPolicyAutoApply(t *testing.T) {
	set, db := fixture()
	r := New(set, db)
	tx, _ := r.Install("gcc")
	tx.Run(db)
	for _, c := range set.Enabled() {
		c.Repo.Publish(rpm.NewPackage("gcc", "4.4.7-16.el6", rpm.ArchX86_64).Build())
	}
	n := r.RunUpdateCheck(PolicyAutoApply, now())
	if len(n.Applied) != 1 || n.ApplyErr != nil {
		t.Fatalf("notification = %+v", n)
	}
	if db.Newest("gcc").EVR.String() != "4.4.7-16.el6" {
		t.Fatal("auto policy should apply updates")
	}
	if !strings.Contains(n.Summary(), "applied 1 update") {
		t.Fatalf("summary:\n%s", n.Summary())
	}
}

func TestPolicySecurityOnly(t *testing.T) {
	set, db := fixture()
	r := New(set, db)
	tx, _ := r.Install("gcc", "openmpi")
	tx.Run(db)
	for _, c := range set.Enabled() {
		c.Repo.Publish(
			rpm.NewPackage("gcc", "4.4.7-16.el6", rpm.ArchX86_64).Category("security update").Build(),
			rpm.NewPackage("openmpi", "1.6.5-1.el6", rpm.ArchX86_64).
				Provides(rpm.Cap("mpi")).
				Requires(rpm.CapVer("gcc", rpm.GE, "4.4")).
				Category("enhancement").Build(),
		)
	}
	n := r.RunUpdateCheck(PolicySecurityOnly, now())
	if len(n.Applied) != 1 || n.Applied[0].Installed.Name != "gcc" {
		t.Fatalf("applied = %v", n.Applied)
	}
	if len(n.Pending) != 1 || n.Pending[0].Installed.Name != "openmpi" {
		t.Fatalf("pending = %v", n.Pending)
	}
	if db.Newest("openmpi").EVR.String() != "1.6.4-3.el6" {
		t.Fatal("non-security update must not apply")
	}
}

func TestNotificationNoUpdates(t *testing.T) {
	set, db := fixture()
	r := New(set, db)
	n := r.RunUpdateCheck(PolicyNotify, now())
	if !strings.Contains(n.Summary(), "no updates available") {
		t.Fatalf("summary:\n%s", n.Summary())
	}
}

func TestPolicyStrings(t *testing.T) {
	if PolicyNotify.String() != "notify" || PolicyAutoApply.String() != "auto-apply" ||
		PolicySecurityOnly.String() != "security-only" {
		t.Fatal("policy strings wrong")
	}
}

// TestResolveAcrossEnableDisable flips repository availability between
// resolutions against one long-lived resolver: the set's cached views must
// track every toggle, and a mid-sequence publish must surface immediately.
func TestResolveAcrossEnableDisable(t *testing.T) {
	set, db := fixture()
	r := New(set, db)

	if _, err := r.Install("gromacs"); err != nil {
		t.Fatalf("resolve with repo enabled: %v", err)
	}
	set.Enable("xsede", false)
	if _, err := r.Install("gromacs"); err == nil {
		t.Fatal("resolve with repo disabled should fail")
	}
	set.Enable("xsede", true)
	tx, err := r.Install("gromacs")
	if err != nil {
		t.Fatalf("resolve after re-enable: %v", err)
	}
	if tx.Len() != 4 { // gromacs, fftw, openmpi, gcc
		t.Fatalf("tx has %d elements, want 4", tx.Len())
	}

	// A publish between resolutions must invalidate the cached winner.
	xsede := set.Lookup("xsede")
	newer := rpm.NewPackage("gromacs", "5.0.1-1.el6", rpm.ArchX86_64).
		Requires(rpm.Cap("fftw"), rpm.Cap("openmpi")).Build()
	if err := xsede.Publish(newer); err != nil {
		t.Fatal(err)
	}
	tx, err = r.Install("gromacs")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, op := range tx.Ops {
		if op.Pkg == newer {
			found = true
		}
	}
	if !found {
		t.Fatalf("transaction still resolves the pre-publish build: %v", tx.Ops)
	}
}
