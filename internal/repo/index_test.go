package repo

import (
	"testing"

	"xcbc/internal/rpm"
)

// TestIndexInvalidationPublishRetract walks the full invalidation cycle:
// publish -> resolve -> retract -> resolve -> republish -> resolve. Every
// query must reflect the repository content at the time of the call, not a
// stale index or cached view.
func TestIndexInvalidationPublishRetract(t *testing.T) {
	r := New("xsede", "XSEDE NIT", "")
	s := NewSet(Config{Repo: r, Priority: 50, Enabled: true})

	if s.Best("openmpi") != nil {
		t.Fatal("empty repo should resolve nothing")
	}
	old := rpm.NewPackage("openmpi", "1.6.4-3.el6", rpm.ArchX86_64).
		Provides(rpm.Cap("mpi")).Build()
	if err := r.Publish(old); err != nil {
		t.Fatal(err)
	}
	if got := s.Best("openmpi"); got != old {
		t.Fatalf("Best after publish = %v, want %v", got, old)
	}
	if got := s.BestProvider(rpm.Cap("mpi")); got != old {
		t.Fatalf("BestProvider after publish = %v, want %v", got, old)
	}

	// A newer build published later must displace the cached winner.
	newer := rpm.NewPackage("openmpi", "1.8.1-1.el6", rpm.ArchX86_64).
		Provides(rpm.Cap("mpi")).Build()
	if err := r.Publish(newer); err != nil {
		t.Fatal(err)
	}
	if got := s.Best("openmpi"); got != newer {
		t.Fatalf("Best after second publish = %v, want %v", got, newer)
	}
	if got, id := s.BestWithRepo("openmpi"); got != newer || id != "xsede" {
		t.Fatalf("BestWithRepo = %v from %q, want %v from xsede", got, id, newer)
	}
	if got := len(r.WhoProvides(rpm.Cap("mpi"))); got != 2 {
		t.Fatalf("WhoProvides(mpi) = %d providers, want 2", got)
	}

	// Retracting the newer build must fall back to the old one everywhere.
	if err := r.Retract(newer.NEVRA()); err != nil {
		t.Fatal(err)
	}
	if got := s.Best("openmpi"); got != old {
		t.Fatalf("Best after retract = %v, want %v", got, old)
	}
	if got := s.BestProvider(rpm.Cap("mpi")); got != old {
		t.Fatalf("BestProvider after retract = %v, want %v", got, old)
	}
	if got := len(r.WhoProvides(rpm.Cap("mpi"))); got != 1 {
		t.Fatalf("WhoProvides(mpi) after retract = %d providers, want 1", got)
	}

	// Retracting the last build must empty every index.
	if err := r.Retract(old.NEVRA()); err != nil {
		t.Fatal(err)
	}
	if s.Best("openmpi") != nil || s.BestProvider(rpm.Cap("mpi")) != nil {
		t.Fatal("retracting the last build should resolve nothing")
	}
	if r.Len() != 0 {
		t.Fatalf("%d packages after full retract, want none", r.Len())
	}
}

// TestSetCachedViewInvalidation exercises the Set-level caches across
// configuration changes: enable/disable and add/remove must be visible to
// the next resolution.
func TestSetCachedViewInvalidation(t *testing.T) {
	vendor := New("vendor", "Vendor", "")
	xsede := New("xsede", "XSEDE NIT", "")
	vendorGCC := rpm.NewPackage("gcc", "4.4.7-4.el6", rpm.ArchX86_64).Build()
	xsedeGCC := rpm.NewPackage("gcc", "4.8.2-1.el6", rpm.ArchX86_64).Build()
	if err := vendor.Publish(vendorGCC); err != nil {
		t.Fatal(err)
	}
	if err := xsede.Publish(xsedeGCC); err != nil {
		t.Fatal(err)
	}
	s := NewSet(
		Config{Repo: vendor, Priority: 10, Enabled: true},
		Config{Repo: xsede, Priority: 50, Enabled: true},
	)

	// Vendor shadows XSEDE (lower priority number wins).
	if got, id := s.BestWithRepo("gcc"); got != vendorGCC || id != "vendor" {
		t.Fatalf("BestWithRepo = %v from %q, want vendor's gcc", got, id)
	}
	// Disabling the vendor repo unshadows XSEDE.
	s.Enable("vendor", false)
	if got, id := s.BestWithRepo("gcc"); got != xsedeGCC || id != "xsede" {
		t.Fatalf("after disable: BestWithRepo = %v from %q, want xsede's gcc", got, id)
	}
	// Re-enabling restores shadowing.
	s.Enable("vendor", true)
	if got := s.Best("gcc"); got != vendorGCC {
		t.Fatalf("after re-enable: Best = %v, want vendor's gcc", got)
	}
}
