package rocks

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"

	"xcbc/internal/cluster"
	"xcbc/internal/rpm"
)

func pkg(name, evr string) *rpm.Package {
	return rpm.NewPackage(name, evr, rpm.ArchX86_64).Build()
}

func TestRollPackagesForAppliance(t *testing.T) {
	r := NewRoll("xsede", "0.9")
	r.AddPackages(ApplianceCompute, pkg("openmpi", "1.6.4-3"), pkg("gcc", "4.4.7-11"))
	r.AddPackages(ApplianceFrontend, pkg("rocks-db", "6.1.1-1"))
	fe := r.PackagesFor(ApplianceFrontend)
	if len(fe) != 3 {
		t.Fatalf("frontend gets compute packages too: %d", len(fe))
	}
	comp := r.PackagesFor(ApplianceCompute)
	if len(comp) != 2 {
		t.Fatalf("compute = %d", len(comp))
	}
	if r.PackageCount() != 3 {
		t.Fatalf("PackageCount = %d", r.PackageCount())
	}
	if !strings.Contains(r.String(), "xsede-0.9") {
		t.Errorf("String = %q", r.String())
	}
}

func TestRollDeduplicates(t *testing.T) {
	p := pkg("gcc", "4.4.7-11")
	r := NewRoll("x", "1")
	r.AddPackages(ApplianceCompute, p)
	r.AddPackages(ApplianceFrontend, p)
	if got := len(r.PackagesFor(ApplianceFrontend)); got != 1 {
		t.Fatalf("frontend sees gcc %d times", got)
	}
}

func TestDistributionRejectsDuplicateRolls(t *testing.T) {
	a := NewRoll("base", "6.1.1")
	b := NewRoll("base", "6.2")
	if _, err := BuildDistribution("d", a, b); err == nil {
		t.Fatal("duplicate roll names should be rejected")
	}
}

func TestDistributionNewestWinsAcrossRolls(t *testing.T) {
	base := NewRoll("base", "6.1.1")
	base.AddPackages(ApplianceCompute, pkg("python", "2.6.6-52"))
	update := NewRoll("updates", "1")
	update.AddPackages(ApplianceCompute, pkg("python", "2.6.6-64"))
	d, err := BuildDistribution("d", base, update)
	if err != nil {
		t.Fatal(err)
	}
	ps := d.PackagesFor(ApplianceCompute)
	if len(ps) != 1 || ps[0].EVR.String() != "2.6.6-64" {
		t.Fatalf("PackagesFor = %v", ps)
	}
	names := d.RollNames()
	if len(names) != 2 || names[0] != "base" {
		t.Errorf("RollNames = %v", names)
	}
}

func TestFrontendDBHosts(t *testing.T) {
	d, _ := BuildDistribution("d", NewRoll("base", "6.1.1"))
	c := cluster.NewLittleFe()
	db := NewFrontendDB(d, c)
	if err := db.AddHost(1); err != nil {
		t.Fatal(err)
	}
	if err := db.AddHost(0); err != nil {
		t.Fatal(err)
	}
	if err := db.AddHost(1); err == nil {
		t.Fatal("duplicate host should fail")
	}
	if err := db.AddHost(len(c.Computes)); err == nil {
		t.Fatal("a host past the last compute should fail")
	}
	hosts := db.Hosts()
	if hosts[0].Name != "compute-0-1" || hosts[1].Name != "compute-0-2" {
		t.Fatalf("ordering wrong: %v, %v", hosts[0].Name, hosts[1].Name)
	}
	if hosts[0].IP == hosts[1].IP {
		t.Fatal("IPs must be distinct")
	}
	if !db.Registered(1) || hosts[1].Rank != 1 {
		t.Fatalf("host 1 = %+v, registered %v", hosts[1], db.Registered(1))
	}
	if err := db.MarkInstalled(1, true); err != nil {
		t.Fatal(err)
	}
	if !db.Hosts()[1].Installed {
		t.Fatal("Installed flag lost")
	}
	if err := db.MarkInstalled(2, true); err == nil {
		t.Fatal("MarkInstalled on a host not in the database should fail")
	}
	if err := db.RemoveHost(0); err != nil {
		t.Fatal(err)
	}
	if err := db.RemoveHost(0); err == nil {
		t.Fatal("double remove should fail")
	}
	report := db.ListHostReport()
	if !strings.Contains(report, "compute-0-2") || strings.Contains(report, "compute-0-1 ") || !strings.Contains(report, "APPLIANCE") {
		t.Errorf("report:\n%s", report)
	}
}

// TestHostAddressesValidToTheMemberCap: every compute of a 256-node
// cluster (the REST API's per-member cap) gets a valid private address of
// its own, and the first 245 keep the 10.1.1.10-254 run they always had.
func TestHostAddressesValidToTheMemberCap(t *testing.T) {
	d, _ := BuildDistribution("d", NewRoll("base", "6.1.1"))
	c := cluster.NewLittleFe()
	if err := cluster.ResizeComputes(c, 256); err != nil {
		t.Fatal(err)
	}
	db := NewFrontendDB(d, c)
	for i := range c.Computes {
		if err := db.AddHost(i); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[netip.Addr]string{}
	for i, rec := range db.Hosts() {
		addr, err := netip.ParseAddr(rec.IP)
		if err != nil || !addr.Is4() {
			t.Fatalf("%s: address %q: %v", rec.Name, rec.IP, err)
		}
		if other, dup := seen[addr]; dup {
			t.Fatalf("%s and %s share %s", other, rec.Name, addr)
		}
		seen[addr] = rec.Name
		if oct := addr.As4(); oct[3] == 0 || oct[3] == 255 {
			t.Errorf("%s: %s is a network or broadcast address", rec.Name, addr)
		}
		if want := fmt.Sprintf("10.1.1.%d", 10+i); i < 245 && rec.IP != want {
			t.Errorf("%s: %s, want %s", rec.Name, rec.IP, want)
		}
	}
	if len(seen) != 256 {
		t.Fatalf("%d hosts, want 256", len(seen))
	}
}

func TestGraphClosureOrderAndActions(t *testing.T) {
	g := DefaultGraph()
	if err := AttachXSEDEFragments(g, "torque"); err != nil {
		t.Fatal(err)
	}
	actions, err := g.ActionsFor("compute")
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(actions, "\n")
	for _, want := range []string{"enable-service:pbs_mom", "enable-service:gmond", "mkdir:/opt/apps", "enable-service:sshd"} {
		if !strings.Contains(joined, want) {
			t.Errorf("compute actions missing %q:\n%s", want, joined)
		}
	}
	if strings.Contains(joined, "pbs_server") {
		t.Error("compute should not run pbs_server")
	}
	feActions, err := g.ActionsFor("frontend")
	if err != nil {
		t.Fatal(err)
	}
	feJoined := strings.Join(feActions, "\n")
	for _, want := range []string{"enable-service:pbs_server", "enable-service:maui", "enable-service:gmetad", "enable-service:httpd"} {
		if !strings.Contains(feJoined, want) {
			t.Errorf("frontend actions missing %q", want)
		}
	}
}

func TestGraphSchedulerVariants(t *testing.T) {
	for sched, svc := range map[string]string{"slurm": "slurmctld", "sge": "sge_qmaster"} {
		g := DefaultGraph()
		if err := AttachXSEDEFragments(g, sched); err != nil {
			t.Fatal(err)
		}
		actions, err := g.ActionsFor("frontend")
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(strings.Join(actions, "\n"), svc) {
			t.Errorf("%s: missing %s", sched, svc)
		}
	}
	if err := AttachXSEDEFragments(DefaultGraph(), "cron"); err == nil {
		t.Fatal("unknown scheduler should be rejected")
	}
}

func TestGraphCycleDetection(t *testing.T) {
	g := NewGraph()
	g.AddNode(&GraphNode{Name: "a"})
	g.AddNode(&GraphNode{Name: "b"})
	g.AddEdge("a", "b")
	g.AddEdge("b", "a")
	if _, err := g.Closure("a"); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle not detected: %v", err)
	}
}

func TestGraphDanglingEdge(t *testing.T) {
	g := NewGraph()
	g.AddNode(&GraphNode{Name: "a"})
	g.AddEdge("a", "missing")
	if _, err := g.Closure("a"); err == nil || !strings.Contains(err.Error(), "undefined") {
		t.Fatalf("dangling edge not detected: %v", err)
	}
}

func TestGraphSharedFragmentVisitedOnce(t *testing.T) {
	g := NewGraph()
	g.AddNode(&GraphNode{Name: "root", Actions: []string{"r"}})
	g.AddNode(&GraphNode{Name: "left", Actions: []string{"l"}})
	g.AddNode(&GraphNode{Name: "right", Actions: []string{"x"}})
	g.AddNode(&GraphNode{Name: "shared", Actions: []string{"s"}})
	g.AddEdge("root", "left")
	g.AddEdge("root", "right")
	g.AddEdge("left", "shared")
	g.AddEdge("right", "shared")
	actions, err := g.ActionsFor("root")
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, a := range actions {
		if a == "s" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("shared fragment applied %d times, want 1", count)
	}
}
