package rpm

import "testing"

func mkpkg(name, evr string, opts ...func(*Builder)) *Package {
	b := NewPackage(name, evr, ArchX86_64)
	for _, o := range opts {
		o(b)
	}
	return b.Build()
}

func requires(caps ...Capability) func(*Builder) {
	return func(b *Builder) { b.Requires(caps...) }
}

func files(paths ...string) func(*Builder) {
	return func(b *Builder) { b.Files(paths...) }
}

func install(t *testing.T, db *DB, ps ...*Package) {
	t.Helper()
	var tx Transaction
	for _, p := range ps {
		tx.Install(p)
	}
	if err := tx.Run(db); err != nil {
		t.Fatalf("install: %v", err)
	}
}

func TestDBInstallAndQuery(t *testing.T) {
	db := NewDB()
	p := mkpkg("gcc", "4.4.7-11.el6")
	install(t, db, p)
	if db.Len() != 1 {
		t.Fatalf("Len = %d", db.Len())
	}
	if !db.Has("gcc") {
		t.Fatal("Has(gcc) = false")
	}
	if db.Newest("gcc") != p {
		t.Fatal("Newest(gcc) wrong")
	}
	if db.Newest("nope") != nil {
		t.Fatal("Newest(nope) should be nil")
	}
	if !db.HasProvider(CapVer("gcc", GE, "4.4")) || db.HasProvider(CapVer("gcc", GE, "5")) {
		t.Fatal("HasProvider must honor the version relation")
	}
}

func TestDBMultipleVersionsNewestFirst(t *testing.T) {
	db := NewDB()
	old := mkpkg("kernel", "2.6.32-431.el6")
	newer := mkpkg("kernel", "2.6.32-504.el6")
	install(t, db, old)
	install(t, db, newer)
	if db.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (kernel installonly)", db.Len())
	}
	if got := db.Newest("kernel"); got != newer {
		t.Fatalf("Newest = %s", got.NEVRA())
	}
	if got := db.Installed(); got[0] != newer || got[1] != old {
		t.Fatal("Installed should order newest first")
	}
}

func TestDBDuplicateInstallRejected(t *testing.T) {
	db := NewDB()
	p := mkpkg("gcc", "4.4.7-11")
	install(t, db, p)
	var tx Transaction
	tx.Install(mkpkg("gcc", "4.4.7-11"))
	if err := tx.Run(db); err == nil {
		t.Fatal("duplicate install should fail")
	}
}

func TestDBFileConflictRejected(t *testing.T) {
	db := NewDB()
	install(t, db, mkpkg("a", "1-1", files("/usr/bin/tool")))
	var tx Transaction
	tx.Install(mkpkg("b", "1-1", files("/usr/bin/tool")))
	err := tx.Run(db)
	if err == nil {
		t.Fatal("file conflict should fail")
	}
	if db.Has("b") {
		t.Fatal("failed transaction must not mutate DB")
	}
	owner, ok := db.OwnerOf("/usr/bin/tool")
	if !ok || owner != "a-1-1.x86_64" {
		t.Fatalf("OwnerOf = %q, %v", owner, ok)
	}
}

func TestDBEraseRemovesFiles(t *testing.T) {
	db := NewDB()
	p := mkpkg("a", "1-1", files("/usr/bin/a", "/etc/a.conf"))
	install(t, db, p)
	var tx Transaction
	tx.Erase(p)
	if err := tx.Run(db); err != nil {
		t.Fatal(err)
	}
	if db.Has("a") {
		t.Fatal("a still installed")
	}
	if _, ok := db.OwnerOf("/usr/bin/a"); ok {
		t.Fatal("file ownership should be gone after erase")
	}
}

func TestDBUnmetRequires(t *testing.T) {
	db := NewDB()
	// Install without dependency checking is impossible through Transaction,
	// so build a broken DB directly to test the invariant checker.
	if err := db.add(mkpkg("app", "1-1", requires(Cap("lib")))); err != nil {
		t.Fatal(err)
	}
	unmet := db.UnmetRequires()
	if len(unmet) != 1 || unmet[0].Name != "lib" {
		t.Fatalf("UnmetRequires = %v", unmet)
	}
	if err := db.add(mkpkg("lib", "1-1")); err != nil {
		t.Fatal(err)
	}
	if got := db.UnmetRequires(); len(got) != 0 {
		t.Fatalf("UnmetRequires after fix = %v", got)
	}
}

func TestDBCloneIndependent(t *testing.T) {
	db := NewDB()
	install(t, db, mkpkg("a", "1-1", files("/a")))
	c := db.Clone()
	install(t, c, mkpkg("b", "1-1"))
	if db.Has("b") {
		t.Fatal("clone mutation leaked into original")
	}
	if !c.Has("a") {
		t.Fatal("clone missing original content")
	}
	if _, ok := c.OwnerOf("/a"); !ok {
		t.Fatal("clone missing file index")
	}
}

func TestTransactionDependencyEnforced(t *testing.T) {
	db := NewDB()
	var tx Transaction
	tx.Install(mkpkg("app", "1-1", requires(Cap("lib"))))
	if err := tx.Run(db); err == nil {
		t.Fatal("install with unmet dep should fail")
	}
	// Installing both in one transaction succeeds.
	var tx2 Transaction
	tx2.Install(mkpkg("app", "1-1", requires(Cap("lib"))))
	tx2.Install(mkpkg("lib", "1-1"))
	if err := tx2.Run(db); err != nil {
		t.Fatal(err)
	}
}

func TestTransactionEraseBreakingDepFails(t *testing.T) {
	db := NewDB()
	lib := mkpkg("lib", "1-1")
	install(t, db, mkpkg("app", "1-1", requires(Cap("lib"))), lib)
	var tx Transaction
	tx.Erase(lib)
	if err := tx.Run(db); err == nil {
		t.Fatal("erase that breaks dependency should fail")
	}
	if !db.Has("lib") {
		t.Fatal("DB mutated by failed erase")
	}
}

func TestTransactionUpgrade(t *testing.T) {
	db := NewDB()
	old := mkpkg("R", "3.0.1-1", files("/usr/bin/R"))
	install(t, db, old)
	newer := mkpkg("R", "3.1.2-1", files("/usr/bin/R"))
	var tx Transaction
	tx.Upgrade(newer, old)
	if err := tx.Run(db); err != nil {
		t.Fatal(err)
	}
	if got := db.Newest("R"); got != newer {
		t.Fatalf("Newest = %v", got)
	}
	if db.Len() != 1 {
		t.Fatalf("Len = %d after upgrade, want 1", db.Len())
	}
	owner, _ := db.OwnerOf("/usr/bin/R")
	if owner != newer.NEVRA() {
		t.Fatalf("file owner = %q", owner)
	}
}

func TestTransactionConflictRejected(t *testing.T) {
	db := NewDB()
	torque := NewPackage("torque", "4.2.10-1", ArchX86_64).Conflicts(Cap("slurm")).Build()
	slurm := NewPackage("slurm", "14.03-1", ArchX86_64).Build()
	install(t, db, torque)
	var tx Transaction
	tx.Install(slurm)
	if err := tx.Run(db); err == nil {
		t.Fatal("conflicting install should fail")
	}
}

func TestTransactionSwapSchedulerInOneTransaction(t *testing.T) {
	// The paper's Limulus workflow: "with XNIT ... change the schedulers".
	// Replacing torque with slurm must work as erase+install in one atomic
	// transaction even though they conflict pairwise.
	db := NewDB()
	torque := NewPackage("torque", "4.2.10-1", ArchX86_64).Conflicts(Cap("slurm")).Build()
	install(t, db, torque)
	slurm := NewPackage("slurm", "14.03-1", ArchX86_64).Build()
	var tx Transaction
	tx.Erase(torque)
	tx.Install(slurm)
	if err := tx.Run(db); err != nil {
		t.Fatal(err)
	}
	if db.Has("torque") || !db.Has("slurm") {
		t.Fatal("scheduler swap did not apply")
	}
}

func TestTransactionEmptyFails(t *testing.T) {
	var tx Transaction
	if err := tx.Run(NewDB()); err == nil {
		t.Fatal("empty transaction should fail")
	}
}

func TestTransactionAccounting(t *testing.T) {
	var tx Transaction
	a := NewPackage("a", "1-1", ArchX86_64).Size(100).Build()
	b := NewPackage("b", "1-1", ArchX86_64).Size(200).Build()
	old := NewPackage("b", "0-1", ArchX86_64).Size(150).Build()
	tx.Install(a)
	tx.Upgrade(b, old)
	tx.Erase(NewPackage("c", "1-1", ArchX86_64).Build())
	if tx.Len() != 3 {
		t.Fatalf("Len = %d", tx.Len())
	}
	if tx.InstallCount() != 2 {
		t.Fatalf("InstallCount = %d", tx.InstallCount())
	}
	if tx.DownloadBytes() != 300 {
		t.Fatalf("DownloadBytes = %d", tx.DownloadBytes())
	}
	if tx.String() == "" {
		t.Fatal("String empty")
	}
}

func TestOpKindString(t *testing.T) {
	if OpInstall.String() != "install" || OpErase.String() != "erase" || OpUpgrade.String() != "upgrade" {
		t.Fatal("OpKind strings wrong")
	}
}
