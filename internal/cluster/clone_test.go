package cluster

import (
	"fmt"
	"reflect"
	"testing"

	"xcbc/internal/rpm"
)

// exportedEqual compares two values of one struct type on every exported
// field, following *Node and []*Node so that pointer identity — which a
// clone must not share — does not count as a difference. The pointers a
// clone shares on purpose are its nodes' *Hardware and *CPUModel: neither
// is ever written through.
func exportedEqual(t *testing.T, path string, a, b reflect.Value) {
	t.Helper()
	if a.Type() == reflect.TypeFor[*CPUModel]() || a.Type() == reflect.TypeFor[*Hardware]() {
		if a.Pointer() != b.Pointer() {
			t.Errorf("%s: the copy has its own %s", path, a.Type())
		}
		return
	}
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() != b.IsNil() {
			t.Errorf("%s: nil on one side only", path)
		} else if !a.IsNil() {
			if a.Pointer() == b.Pointer() {
				t.Errorf("%s: the copy shares the template's %s", path, a.Type())
			}
			exportedEqual(t, path, a.Elem(), b.Elem())
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if f := a.Type().Field(i); f.IsExported() {
				exportedEqual(t, path+"."+f.Name, a.Field(i), b.Field(i))
			}
		}
	case reflect.Slice:
		if a.Type().Elem().Kind() == reflect.Pointer {
			if a.Len() != b.Len() {
				t.Fatalf("%s: %d elements, template has %d", path, b.Len(), a.Len())
			}
			for i := 0; i < a.Len(); i++ {
				exportedEqual(t, fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i))
			}
			return
		}
		fallthrough
	default:
		if !reflect.DeepEqual(a.Interface(), b.Interface()) {
			t.Errorf("%s: %v, template has %v", path, b.Interface(), a.Interface())
		}
	}
}

// nodeState is everything a build can change about a node.
type nodeState struct {
	Power              PowerState
	Pkgs               int
	OS                 string
	Services           []string
	Attrs              map[string]string
	EnergyWh           float64
	Disks, NICs, Accel int
	LastNIC            NIC
}

func stateOf(c *Cluster) map[string]nodeState {
	out := map[string]nodeState{}
	for n := range c.All() {
		out[n.Name] = nodeState{
			Power: n.Power(), Pkgs: n.Packages().Len(), OS: n.OS(),
			Services: n.Services(), Attrs: n.Attrs(), EnergyWh: n.EnergyWh(),
			Disks: len(n.Disks), NICs: len(n.NICs), Accel: len(n.Accels), LastNIC: n.NICs[len(n.NICs)-1],
		}
	}
	return out
}

// TestCloneIsFaithfulAndIndependent: for every cataloged machine, as built
// and resized both ways, a clone equals its template on every exported
// field, and nothing a build does to the clone — power, packages, system
// state, services, attributes, added components, energy — reaches the
// template or a sibling clone, although all three share their component
// lists until one of them adds to its own.
func TestCloneIsFaithfulAndIndependent(t *testing.T) {
	var tx rpm.Transaction
	tx.Install(rpm.NewPackage("gcc", "4.4.7-11", rpm.ArchX86_64).Build())
	for _, name := range CatalogNames() {
		for _, resize := range []int{0, 2, 9} { // as cataloged, shrunk or grown
			t.Run(fmt.Sprintf("%s/nodes=%d", name, resize), func(t *testing.T) {
				template, err := FromCatalog(name)
				if err != nil {
					t.Fatal(err)
				}
				if resize > 0 {
					if err := ResizeComputes(template, resize); err != nil {
						t.Fatal(err)
					}
				}
				clone, sibling := template.Clone(), template.Clone()
				exportedEqual(t, name, reflect.ValueOf(template), reflect.ValueOf(clone))
				if err := clone.Validate(); err != nil {
					t.Error(err)
				}
				if clone.Summary() != template.Summary() || clone.RpeakGFLOPS() != template.RpeakGFLOPS() {
					t.Errorf("clone is %q (%v GFLOPS), template %q (%v)",
						clone.Summary(), clone.RpeakGFLOPS(), template.Summary(), template.RpeakGFLOPS())
				}

				before, beforeSibling := stateOf(template), stateOf(sibling)
				for n := range clone.All() {
					n.SetPower(PowerOn)
					n.WipePackages()
					if err := tx.Run(n.MutablePackages()); err != nil {
						t.Fatal(err)
					}
					n.AdoptSystemState(map[string]bool{"gmond": true}, map[string]string{"dir:/opt/apps": "present"})
					n.StartService("pbs_mom")
					n.SetAttr("rack", "0")
					n.SetOS("CentOS 6.5")
					n.AddNIC(NIC{Name: "ib0", Network: "ib"})
					n.AddDisk(Disk{Model: "scratch", SizeGB: 1})
					n.AddAccelerator(Accelerator{GFLOPSEach: 1})
					n.AddEnergy(1.5)
				}
				if got := stateOf(template); !reflect.DeepEqual(got, before) {
					t.Errorf("building the clone changed the template:\n got %+v\nwant %+v", got, before)
				}
				if got := stateOf(sibling); !reflect.DeepEqual(got, beforeSibling) {
					t.Errorf("building the clone changed its sibling:\n got %+v\nwant %+v", got, beforeSibling)
				}
				for n := range clone.All() {
					if n.Power() != PowerOn || n.Packages().Len() != 1 || !n.ServiceRunning("gmond") ||
						!n.ServiceRunning("pbs_mom") || n.OS() == "" || n.EnergyWh() != 1.5 ||
						n.NICs[len(n.NICs)-1].Name != "ib0" {
						t.Errorf("%s did not keep what the build did to it: %s", n.Name, n)
					}
				}
			})
		}
	}
}

// TestCloneStartsBareMetal: a clone takes the hardware, never the state.
func TestCloneStartsBareMetal(t *testing.T) {
	template := NewLittleFe()
	template.PowerOnAll()
	template.Frontend.SetOS("CentOS 6.5")
	template.Frontend.StartService("httpd")
	template.Frontend.AddEnergy(3)
	for n := range template.Clone().All() {
		if n.Power() != PowerOff || n.OS() != "" || len(n.Services()) != 0 || n.EnergyWh() != 0 {
			t.Errorf("%s cloned with state: %s power=%s os=%q", n.Name, n, n.Power(), n.OS())
		}
	}
}

// TestCloneCapsSharedLists: the component lists are shared at full
// capacity, so adding to a copy never writes into spare room the template
// (or a sibling) could later append into.
func TestCloneCapsSharedLists(t *testing.T) {
	template := NewLittleFe()
	head := template.Frontend
	head.NICs = append(make([]NIC, 0, 8), head.NICs...) // spare capacity
	a, b := template.Clone(), template.Clone()
	a.Frontend.AddNIC(NIC{Name: "a"})
	b.Frontend.AddNIC(NIC{Name: "b"})
	head.AddNIC(NIC{Name: "t"})
	for name, n := range map[string]*Node{"a": a.Frontend, "b": b.Frontend, "t": head} {
		if got := n.NICs[len(n.NICs)-1].Name; len(n.NICs) != 3 || got != name {
			t.Errorf("%s: %d NICs ending in %q, want 3 ending in %q", name, len(n.NICs), got, name)
		}
	}
}

func TestHotPathsDoNotAllocate(t *testing.T) {
	c := NewKansas()
	last := c.Computes[len(c.Computes)-1].Name
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := c.Lookup(last); !ok {
			t.Fatal("lookup failed")
		}
		_, _ = c.NodeCount(), c.Cores()
	}); n != 0 {
		t.Errorf("Lookup+NodeCount+Cores allocate %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { c.Clone() }); n != 3 {
		t.Errorf("Clone of a %d-node cluster allocates %v times, want 3", c.NodeCount(), n)
	}
}

// TestAdoptedPackagesForkOnFirstWrite: nodes that adopt an appliance's
// database read that one database until one of them writes, and the
// writer gets a fork; a wipe returns a node to an empty database of its
// own. A node is found by name only at the edge, by ComputeIndex.
func TestAdoptedPackagesForkOnFirstWrite(t *testing.T) {
	var install rpm.Transaction
	install.Install(rpm.NewPackage("gcc", "4.4.7-11", rpm.ArchX86_64).Build())
	shared := rpm.NewDB()
	if err := install.Run(shared); err != nil {
		t.Fatal(err)
	}
	shared.Freeze()
	c := NewLittleFe()
	if c.ComputeIndex("compute-0-3") != 2 || c.ComputeIndex(c.Frontend.Name) != -1 || c.ComputeIndex("ghost") != -1 {
		t.Fatal("ComputeIndex does not find compute nodes by position")
	}
	a, b := c.Computes[0], c.Computes[1]
	a.AdoptPackages(shared)
	b.AdoptPackages(shared)
	var tx rpm.Transaction
	tx.Install(rpm.NewPackage("make", "3.81-20", rpm.ArchX86_64).Build())
	if err := tx.Run(a.MutablePackages()); err != nil {
		t.Fatal(err)
	}
	if a.Packages() == shared || a.MutablePackages() != a.Packages() || a.Packages().Len() != 2 {
		t.Fatalf("the writer did not get a fork of its own: %d packages", a.Packages().Len())
	}
	if b.Packages() != shared || shared.Len() != 1 {
		t.Fatalf("the write reached the shared database: %d packages", shared.Len())
	}
	b.WipePackages()
	if db := b.MutablePackages(); db == shared || db.Len() != 0 || b.Packages() != db {
		t.Fatal("a wiped node does not get an empty database of its own")
	}
}
