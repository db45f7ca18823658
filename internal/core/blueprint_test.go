package core

import (
	"fmt"
	"slices"
	"testing"

	"xcbc/internal/cluster"
	"xcbc/internal/modules"
	"xcbc/internal/provision"
	"xcbc/internal/rocks"
	"xcbc/internal/rpm"
	"xcbc/internal/sim"
)

func tableLen() int {
	blueprints.Lock()
	defer blueprints.Unlock()
	return len(blueprints.m)
}

// TestBlueprintTableIsBounded: two requests naming the same roll set share
// one Blueprint whatever their order and repeats, so no caller — an API
// body of a thousand repeated names, or any number of XNIT adoptions — can
// grow the table past the 3 × 2048 recipes there are.
func TestBlueprintTableIsBounded(t *testing.T) {
	for _, pair := range [][2][]string{
		{{"hpc", "hpc"}, {"hpc"}},
		{{"hpc", "ganglia"}, {"ganglia", "hpc"}},
	} {
		a, err := blueprintFor("torque", pair[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := blueprintFor("torque", pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%q and %q name one roll set but got two Blueprints", pair[0], pair[1])
		}
	}

	before := tableLen()
	var rolls []string
	for range 200 {
		rolls = append(rolls, "hpc")
		if _, err := BuildDistribution("sge", rolls...); err != nil {
			t.Fatal(err)
		}
	}
	if grown := tableLen() - before; grown > 1 {
		t.Errorf("200 spellings of one roll set added %d table entries, want at most 1", grown)
	}

	before = tableLen()
	xnit, err := NewXNITRepository()
	if err != nil {
		t.Fatal(err)
	}
	for i := range 5 {
		c := cluster.NewLimulusHPC200()
		c.PowerOnAll()
		for _, n := range c.Nodes() {
			var tx rpm.Transaction // fresh package pointers per adoption, as a vendor base is
			tx.Install(rpm.NewPackage("kernel", "2.6.32-431.el6.sl", rpm.ArchX86_64).Build())
			if err := tx.Run(n.Packages()); err != nil {
				t.Fatal(err)
			}
		}
		d, err := NewVendorDeployment(sim.NewEngine(), c, "", Options{})
		if err != nil {
			t.Fatal(err)
		}
		ConfigureXNIT(d, xnit)
		if _, err := d.InstallProfile("compilers"); err != nil {
			t.Fatalf("adoption %d: %v", i, err)
		}
	}
	if n := tableLen(); n != before {
		t.Errorf("5 XNIT adoptions changed the table from %d to %d entries", before, n)
	}

	for _, bad := range [][2]string{{"cron", ""}, {"torque", "ghost-roll"}} {
		if _, err := blueprintFor(bad[0], []string{bad[1]}); err == nil {
			t.Errorf("recipe %q accepted", bad)
		}
	}
}

// requestOrderBuild is the reference the canonical order is checked
// against: the optional rolls in the order the request names them,
// repeats skipped.
func requestOrderBuild(scheduler string, rolls []string) *rocks.Distribution {
	byName := CatalogByName(Catalog())
	set := []*rocks.Roll{baseRoll(byName), xsedeRoll(byName, scheduler)}
	seen := map[string]bool{}
	for _, name := range rolls {
		if !seen[name] {
			seen[name] = true
			set = append(set, optionalRoll(byName, name))
		}
	}
	d, err := rocks.BuildDistribution("xcbc-"+XCBCVersion+"-"+scheduler, set...)
	if err != nil {
		panic(err)
	}
	return d
}

// TestCanonicalOrderChangesNothing: a Blueprint puts its rolls in Table 1's
// order, and everything a build reads from the distribution is what the
// request-order assembly gave — the roll names, each appliance's packages
// and installed package database, the frontend's modules, and the
// progress line.
func TestCanonicalOrderChangesNothing(t *testing.T) {
	reversed := slices.Clone(OptionalRollNames)
	slices.Reverse(reversed)
	for _, sch := range Schedulers {
		for _, rolls := range [][]string{
			nil,
			{"hpc"},
			{"hpc", "ganglia"},
			{"ganglia", "hpc", "ganglia"},
			{"zfs-linux", "area51", "web-server", "bio"},
			reversed,
			append(slices.Clone(OptionalRollNames), reversed...),
		} {
			name := fmt.Sprintf("%s%q", sch, rolls)
			bp, err := NewBlueprint(sch, rolls)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			ref := requestOrderBuild(sch, rolls)
			if got, want := bp.dist.RollNames(), ref.RollNames(); !slices.Equal(got, want) {
				t.Errorf("%s: RollNames = %v, want %v", name, got, want)
			}
			for _, a := range []struct {
				app rocks.Appliance
				ks  provision.Kickstart
			}{{rocks.ApplianceFrontend, bp.plan.Frontend}, {rocks.ApplianceCompute, bp.plan.Compute}} {
				want := ref.PackagesFor(a.app)
				if got := bp.dist.PackagesFor(a.app); !slices.Equal(got, want) {
					t.Errorf("%s: PackagesFor(%s) differs from the request-order build", name, a.app)
				}
				var tx rpm.Transaction
				for _, p := range want {
					tx.Install(p)
				}
				db := rpm.NewDB()
				if err := tx.Run(db); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(a.ks.DB.Installed(), db.Installed()) {
					t.Errorf("%s: %s package database differs from the request-order build", name, a.app)
				}
			}
			wantMods := modules.FromPackages(ref.PackagesFor(rocks.ApplianceFrontend), CategoryCompilers, CategorySciApps)
			if got, want := bp.modules.Avail(), wantMods.Avail(); !slices.Equal(got, want) {
				t.Errorf("%s: module tree differs from the request-order build", name)
			}
			want := fmt.Sprintf("assembled %s (%d rolls)", ref.Name, len(ref.RollNames()))
			if bp.message != want {
				t.Errorf("%s: message = %q, want %q", name, bp.message, want)
			}
		}
	}
}
