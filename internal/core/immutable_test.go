package core_test

import (
	"context"
	"maps"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

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
	Indexed  []bool // a DB adopting the set finds each package by name and by its provides
	Actions  []string
	Services map[string]bool
	Attrs    map[string]string
}

func viewOf(t *testing.T, plan *provision.Plan, mods *modules.System) blueprintView {
	t.Helper()
	v := blueprintView{Modules: map[string]modules.Modulefile{}, ModulePtrs: map[string]*modules.Modulefile{}}
	for i, ks := range []provision.Kickstart{plan.Frontend, plan.Compute} {
		db := rpm.NewDB()
		if err := db.AdoptSet(ks.Set); err != nil {
			t.Fatal(err)
		}
		kv := kickstartView{
			Packages: slices.Clone(ks.Set.Packages()),
			Indexed:  []bool{db.Len() == len(ks.Set.Packages())},
			Actions:  slices.Clone(ks.Actions),
			Services: maps.Clone(ks.Services),
			Attrs:    maps.Clone(ks.Attrs),
		}
		for _, p := range ks.Set.Packages() {
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

// memberView is what a member's deployment shows of its own state.
type memberView struct {
	Services [][]string
	Attrs    []map[string]string
	Packages [][]*rpm.Package
	Modules  []string
}

func memberViewOf(d *core.Deployment) memberView {
	var v memberView
	for _, n := range d.Cluster.Nodes() {
		v.Services = append(v.Services, n.Services())
		v.Attrs = append(v.Attrs, n.Attrs())
		v.Packages = append(v.Packages, slices.Clone(n.Packages().Installed()))
	}
	v.Modules = d.Modules.Avail()
	return v
}

// TestNothingWritesABlueprint: every member of a fleet builds from one
// shared Blueprint, and what day-2 operations do to a member — a node
// failure and repair, a Rocks reinstall, XNIT adoption with a profile
// install, module regeneration — lands on that member's private copies.
// The Blueprint and a sibling member read the same afterwards; under -race
// the second fleet building beside the mutations also proves no build
// reads what another goroutine writes.
func TestNothingWritesABlueprint(t *testing.T) {
	plan, mods, err := core.BlueprintParts("torque", "ganglia", "hpc")
	if err != nil {
		t.Fatal(err)
	}
	want := viewOf(t, plan, mods)

	ctx := context.Background()
	provisioned := func(name string) *fleet.Fleet {
		f, err := fleet.New(fleet.Spec{Name: name, Members: 20, Nodes: 4, Parallelism: 2, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Provision(ctx); err != nil {
			t.Fatal(err)
		}
		return f
	}
	f := provisioned("a")
	if err := f.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	members := f.Members()
	d, _ := members[0].Deployment()
	sibling, _ := members[1].Deployment()
	if d.Modules != mods || sibling.Modules != mods {
		t.Fatal("a fleet member does not read the shared module tree")
	}
	siblingBefore := memberViewOf(sibling)

	second := provisioned("b")
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

	if d.Modules == mods || !d.Cluster.Computes[0].Packages().Has("gffs") {
		t.Fatal("the member's day-2 changes did not happen")
	}
	if got := viewOf(t, plan, mods); !reflect.DeepEqual(got, want) {
		t.Error("day-2 operations on a member wrote into the shared Blueprint")
	}
	if got := memberViewOf(sibling); !reflect.DeepEqual(got, siblingBefore) {
		t.Error("day-2 operations on one member changed its sibling")
	}
}
