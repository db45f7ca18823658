package rpm

import (
	"errors"
	"strings"
	"testing"
)

func mustSet(t *testing.T, pkgs ...*Package) *InstallSet {
	t.Helper()
	s, err := NewInstallSet(pkgs)
	if err != nil {
		t.Fatalf("NewInstallSet: %v", err)
	}
	return s
}

func TestInstallSetValidation(t *testing.T) {
	if _, err := NewInstallSet(nil); err != ErrEmptyTransaction {
		t.Fatalf("empty set err = %v, want ErrEmptyTransaction", err)
	}

	cases := []struct {
		name string
		pkgs []*Package
		want string
	}{
		{
			"duplicate nevra",
			[]*Package{mkpkg("gcc", "4.4.7-11.el6"), mkpkg("gcc", "4.4.7-11.el6")},
			"already installed",
		},
		{
			"file conflict",
			[]*Package{
				mkpkg("a", "1-1", files("/usr/bin/tool")),
				mkpkg("b", "1-1", files("/usr/bin/tool")),
			},
			"conflicts with file",
		},
		{
			"unmet requirement",
			[]*Package{mkpkg("app", "1-1", requires(Cap("libmissing")))},
			"unmet requirement",
		},
		{
			"conflicting pair",
			[]*Package{
				mkpkg("mta-a", "1-1", func(b *Builder) { b.Conflicts(Cap("mta-b")) }),
				mkpkg("mta-b", "1-1"),
			},
			"conflicts with",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewInstallSet(tc.pkgs)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestAdoptSetMatchesTransaction(t *testing.T) {
	pkgs := []*Package{
		mkpkg("glibc", "2.12-1.el6", files("/lib64/libc.so.6")),
		mkpkg("gcc", "4.4.7-11.el6", requires(Cap("glibc"))),
		mkpkg("kernel", "2.6.32-431.el6"),
		mkpkg("kernel", "2.6.32-504.el6"),
	}

	adopted := NewDB()
	if err := adopted.AdoptSet(mustSet(t, pkgs...)); err != nil {
		t.Fatalf("AdoptSet: %v", err)
	}
	manual := NewDB()
	install(t, manual, pkgs...)

	if adopted.Len() != manual.Len() {
		t.Fatalf("Len = %d, want %d", adopted.Len(), manual.Len())
	}
	for _, name := range []string{"glibc", "gcc", "kernel"} {
		a, m := adopted.Newest(name), manual.Newest(name)
		if a == nil || m == nil || a.NEVRA() != m.NEVRA() {
			t.Fatalf("Newest(%s): adopted %v, manual %v", name, a, m)
		}
	}
	if owner, ok := adopted.OwnerOf("/lib64/libc.so.6"); !ok || owner != "glibc-2.12-1.el6.x86_64" {
		t.Fatalf("OwnerOf = (%q, %t)", owner, ok)
	}
	if !adopted.HasProvider(Cap("glibc")) {
		t.Fatal("HasProvider(glibc) = false")
	}
	if unmet := adopted.UnmetRequires(); len(unmet) != 0 {
		t.Fatalf("UnmetRequires = %v", unmet)
	}
}

func TestAdoptSetRequiresEmptyDB(t *testing.T) {
	db := NewDB()
	install(t, db, mkpkg("gcc", "4.4.7-11.el6"))
	if err := db.AdoptSet(mustSet(t, mkpkg("glibc", "2.12-1.el6"))); err == nil {
		t.Fatal("AdoptSet on a non-empty DB succeeded")
	}
}

// TestAdoptSetDetachOnMutate is the sharing contract: many DBs adopt the
// same set's index maps, so a mutation in one must detach onto private
// copies and leave the set and every sibling untouched.
func TestAdoptSetDetachOnMutate(t *testing.T) {
	set := mustSet(t,
		mkpkg("glibc", "2.12-1.el6", files("/lib64/libc.so.6")),
		mkpkg("gcc", "4.4.7-11.el6"),
	)
	a, b := NewDB(), NewDB()
	if err := a.AdoptSet(set); err != nil {
		t.Fatal(err)
	}
	if err := b.AdoptSet(set); err != nil {
		t.Fatal(err)
	}

	// Mutate a: install a new package and erase one that came from the set.
	extra := mkpkg("make", "3.81-20.el6", files("/usr/bin/make"))
	install(t, a, extra)
	var tx Transaction
	tx.Erase(b.Installed()[0]) // gcc sorts first
	if err := tx.Run(a); err != nil {
		t.Fatalf("erase: %v", err)
	}

	if a.Has("gcc") {
		t.Fatal("a still has gcc after erase")
	}
	if !a.Has("make") {
		t.Fatal("a missing make after install")
	}
	// b and the set itself saw none of it.
	if !b.Has("gcc") || b.Has("make") {
		t.Fatalf("sibling DB leaked mutations: gcc=%t make=%t", b.Has("gcc"), b.Has("make"))
	}
	if _, ok := b.OwnerOf("/usr/bin/make"); ok {
		t.Fatal("sibling DB sees a's file index entry")
	}
	if len(set.byName["gcc"]) != 1 {
		t.Fatal("set's own index mutated")
	}
	if b.Len() != 2 || a.Len() != 2 {
		t.Fatalf("Len: a=%d b=%d, want 2 and 2", a.Len(), b.Len())
	}
}

// TestFrozenDBForksInsteadOfWriting: a frozen database is the one every
// node of an appliance reads. A transaction against it fails instead of
// writing through, and a fork takes the transaction while the frozen
// database, and any other fork, reads as before.
func TestFrozenDBForksInsteadOfWriting(t *testing.T) {
	shared := NewDB()
	if err := shared.AdoptSet(mustSet(t, mkpkg("glibc", "2.12-1.el6"), mkpkg("gcc", "4.4.7-11.el6"))); err != nil {
		t.Fatal(err)
	}
	shared.Freeze()
	var tx Transaction
	tx.Install(mkpkg("make", "3.81-20.el6"))
	if err := tx.Run(shared); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("a transaction against a frozen database: %v, want ErrReadOnly", err)
	}
	a, b := shared.Fork(), shared.Fork()
	if err := tx.Run(a); err != nil {
		t.Fatal(err)
	}
	if !a.Has("make") || a.Len() != 3 {
		t.Fatalf("the fork holds %d packages, make %v", a.Len(), a.Has("make"))
	}
	for name, db := range map[string]*DB{"frozen": shared, "sibling fork": b} {
		if db.Has("make") || db.Len() != 2 || len(db.Installed()) != 2 {
			t.Errorf("%s database changed: %d packages, make %v", name, db.Len(), db.Has("make"))
		}
	}
}
