package core_test

import (
	"context"
	"errors"
	"maps"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"xcbc/internal/cluster"
	"xcbc/internal/core"
	"xcbc/internal/fleet"
	"xcbc/internal/modules"
	"xcbc/internal/provision"
	"xcbc/internal/rpm"
)

// blueprintView is a deep copy of everything a Blueprint lets a build read.
type blueprintView struct {
	Kickstarts [2]kickstartView
	Modules    map[string]modules.Modulefile
	ModulePtrs map[string]*modules.Modulefile
}

type kickstartView struct {
	Packages []*rpm.Package
	NEVRAs   []string
	Indexed  []bool // the database finds each package by name and by its provides
	Actions  []string
	Services map[string]bool
	Attrs    map[string]string
}

func viewOf(t *testing.T, plan *provision.Plan, mods *modules.System) blueprintView {
	t.Helper()
	v := blueprintView{Modules: map[string]modules.Modulefile{}, ModulePtrs: map[string]*modules.Modulefile{}}
	for i, ks := range []provision.Kickstart{plan.Frontend, plan.Compute} {
		db := ks.DB // what every node of the appliance reads
		kv := kickstartView{
			Packages: slices.Clone(db.Installed()),
			Indexed:  []bool{db.Len() == len(db.Installed())},
			Actions:  slices.Clone(ks.Actions),
			Services: maps.Clone(ks.Services),
			Attrs:    maps.Clone(ks.Attrs),
		}
		for _, p := range db.Installed() {
			kv.NEVRAs = append(kv.NEVRAs, p.NEVRA())
			ok := db.Newest(p.Name) == p
			for _, c := range p.Provides {
				ok = ok && db.HasProvider(c)
			}
			kv.Indexed = append(kv.Indexed, ok)
		}
		v.Kickstarts[i] = kv
	}
	for _, key := range mods.Avail() {
		m, err := mods.Resolve(strings.TrimSuffix(key, " (default)"))
		if err != nil {
			t.Fatal(err)
		}
		cp := *m
		cp.PrependPath = map[string][]string{}
		for k, paths := range m.PrependPath {
			cp.PrependPath[k] = slices.Clone(paths)
		}
		cp.SetEnv = maps.Clone(m.SetEnv)
		cp.Conflicts, cp.Prereqs = slices.Clone(m.Conflicts), slices.Clone(m.Prereqs)
		v.Modules[key], v.ModulePtrs[key] = cp, m
	}
	return v
}

// memberView is what a member's deployment shows of its own state: per
// node its services, attributes, packages and hardware, then its module
// tree, host table and install log.
type memberView struct {
	Services [][]string
	Attrs    []map[string]string
	Packages [][]*rpm.Package
	Hardware []cluster.Hardware
	Modules  []string
	Hosts    string
	Log      []string
}

func memberViewOf(d *core.Deployment) memberView {
	var v memberView
	for _, n := range d.Cluster.Nodes() {
		v.Services = append(v.Services, n.Services())
		v.Attrs = append(v.Attrs, n.Attrs())
		v.Packages = append(v.Packages, slices.Clone(n.Packages().Installed()))
		hw := *n.Hardware
		hw.Disks, hw.NICs, hw.Accels = slices.Clone(hw.Disks), slices.Clone(hw.NICs), slices.Clone(hw.Accels)
		v.Hardware = append(v.Hardware, hw)
	}
	v.Modules = d.Modules.Avail()
	v.Hosts = d.Installer.DB.ListHostReport()
	v.Log = d.Installer.Log()
	return v
}

// TestNothingWritesABlueprint: every member of a fleet builds from one
// shared Blueprint and points its nodes at one hardware template, and
// what happens to a member — a kickstart fault and retry, a node failure
// and repair, a Rocks reinstall, XNIT adoption with a profile install,
// module regeneration, an added NIC — lands on that member's private
// copies. The Blueprint reads the same afterwards, and a sibling member
// reads exactly what a freshly built member does; under -race the second
// fleet building beside the mutations also proves no build reads what
// another goroutine writes.
func TestNothingWritesABlueprint(t *testing.T) {
	plan, mods, err := core.BlueprintParts("torque", "ganglia", "hpc")
	if err != nil {
		t.Fatal(err)
	}
	want := viewOf(t, plan, mods)

	ctx := context.Background()
	spec := fleet.Spec{Members: 20, Nodes: 4, Parallelism: 2, Retries: 1, Workers: 4}
	provisioned := func(name string, hook func(*fleet.Member)) *fleet.Fleet {
		spec.Name = name
		f, err := fleet.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		if hook != nil {
			hook(f.Members()[0])
		}
		if err := f.Provision(ctx); err != nil {
			t.Fatal(err)
		}
		return f
	}
	retried := 0
	f := provisioned("a", func(m *fleet.Member) {
		m.SetInstallHook(func(node string, attempt int) error {
			if node == "compute-0-2" && attempt == 1 && retried == 0 {
				retried++
				return errors.New("injected PXE fault")
			}
			return nil
		})
	})
	if err := f.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	members := f.Members()
	d, _ := members[0].Deployment()
	sibling, _ := members[1].Deployment()
	if d.Modules != mods || sibling.Modules != mods {
		t.Fatal("a fleet member does not read the shared module tree")
	}
	if retried != 1 || d.Cluster.Computes[1].OS() == "" {
		t.Fatalf("the kickstart fault retried %d times", retried)
	}
	if sibling.Cluster.Computes[0].Hardware != d.Cluster.Computes[0].Hardware ||
		sibling.Cluster.Computes[0].Packages() != plan.Compute.DB {
		t.Fatal("a clean member does not read its template's hardware and its kickstart's packages")
	}

	second := provisioned("b", nil)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := second.Wait(ctx); err != nil {
			t.Error(err)
		}
	}()
	ops, err := members[0].Operations()
	if err != nil {
		t.Fatal(err)
	}
	victim := d.Cluster.Computes[1].Name
	if err := ops.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	if err := d.Batch.NodeRepair(victim); err != nil {
		t.Fatal(err)
	}
	node, _ := d.Cluster.Lookup(victim)
	node.StartService("rogue-miner")
	node.AddNIC(cluster.NIC{Name: "ib0", Network: "ib"})
	if _, err := d.Installer.Reinstall(d.Engine, victim); err != nil {
		t.Fatal(err)
	}
	if err := members[0].AdoptXNIT(); err != nil {
		t.Fatal(err)
	}
	if n, err := d.InstallProfile("grid"); err != nil || n == 0 {
		t.Fatalf("InstallProfile(grid) = %d, %v", n, err)
	}
	d.RegenerateModules()
	wg.Wait()

	if d.Modules == mods || !d.Cluster.Computes[0].Packages().Has("gffs") || len(node.NICs) != 2 {
		t.Fatal("the member's day-2 changes did not happen")
	}
	if got := viewOf(t, plan, mods); !reflect.DeepEqual(got, want) {
		t.Error("day-2 operations on a member wrote into the shared Blueprint")
	}
	fresh, _ := second.Members()[1].Deployment()
	if got, want := memberViewOf(sibling), memberViewOf(fresh); !reflect.DeepEqual(got, want) {
		t.Errorf("what happened to one member changed its sibling:\n got %+v\nwant %+v", got, want)
	}
}
