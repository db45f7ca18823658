package provision

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"xcbc/internal/cluster"
	"xcbc/internal/rocks"
	"xcbc/internal/rpm"
	"xcbc/internal/sim"
)

func testDistro(t *testing.T) *rocks.Distribution {
	t.Helper()
	base := rocks.NewRoll("base", "6.1.1", "Rocks base", false)
	base.AddPackages(rocks.ApplianceCompute,
		rpm.NewPackage("kernel", "2.6.32-431.el6", rpm.ArchX86_64).Build(),
		rpm.NewPackage("openssh-server", "5.3p1-94.el6", rpm.ArchX86_64).Build(),
	)
	base.AddPackages(rocks.ApplianceFrontend,
		rpm.NewPackage("rocks-db", "6.1.1-1", rpm.ArchX86_64).Build(),
		rpm.NewPackage("httpd", "2.2.15-39.el6", rpm.ArchX86_64).Build(),
	)
	xsede := rocks.NewRoll("xsede", "0.9", "XCBC", false)
	xsede.AddPackages(rocks.ApplianceCompute,
		rpm.NewPackage("torque-mom", "4.2.10-1", rpm.ArchX86_64).Build(),
		rpm.NewPackage("gmond", "3.6.0-1", rpm.ArchX86_64).Build(),
	)
	xsede.AddPackages(rocks.ApplianceFrontend,
		rpm.NewPackage("torque-server", "4.2.10-1", rpm.ArchX86_64).Build(),
		rpm.NewPackage("maui", "3.3.1-1", rpm.ArchX86_64).Build(),
	)
	d, err := rocks.BuildDistribution("xcbc-6.1.1", base, xsede)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func testInstaller(t *testing.T, c *cluster.Cluster) *Installer {
	t.Helper()
	g := rocks.DefaultGraph()
	if err := rocks.AttachXSEDEFragments(g, "torque"); err != nil {
		t.Fatal(err)
	}
	return NewInstaller(c, rocks.NewFrontendDB(testDistro(t)), g, "CentOS 6.5")
}

// installAll builds the frontend and then every compute node, one
// kickstart at a time, and returns the per-node results in that order.
func installAll(t *testing.T, ins *Installer, eng *sim.Engine) []*Result {
	t.Helper()
	r, err := ins.InstallFrontend(eng)
	if err != nil {
		t.Fatal(err)
	}
	results := []*Result{r}
	if err := ins.DiscoverComputes(); err != nil {
		t.Fatal(err)
	}
	for _, n := range ins.Cluster.Computes {
		r, err := ins.InstallCompute(eng, n.Name)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	return results
}

func TestInstallAllOnLittleFe(t *testing.T) {
	c := cluster.NewLittleFe()
	ins := testInstaller(t, c)
	eng := sim.NewEngine()
	results := installAll(t, ins, eng)
	if len(results) != 6 {
		t.Fatalf("results = %d, want 6 (frontend + 5 computes)", len(results))
	}
	// Frontend has everything, including compute packages.
	fe := c.Frontend
	if fe.OS() != "CentOS 6.5" {
		t.Errorf("frontend OS = %q", fe.OS())
	}
	for _, name := range []string{"rocks-db", "httpd", "torque-server", "maui", "kernel", "torque-mom"} {
		if !fe.Packages().Has(name) {
			t.Errorf("frontend missing %s", name)
		}
	}
	if !fe.ServiceRunning("pbs_server") || !fe.ServiceRunning("gmetad") {
		t.Errorf("frontend services = %v", fe.Services())
	}
	// Computes get the compute set only.
	for _, n := range c.Computes {
		if n.Packages().Has("rocks-db") {
			t.Errorf("%s should not have frontend-only packages", n.Name)
		}
		if !n.Packages().Has("torque-mom") {
			t.Errorf("%s missing torque-mom", n.Name)
		}
		if !n.ServiceRunning("pbs_mom") || !n.ServiceRunning("gmond") {
			t.Errorf("%s services = %v", n.Name, n.Services())
		}
		if n.Power() != cluster.PowerOn {
			t.Errorf("%s should be powered on", n.Name)
		}
	}
	if eng.Now() == 0 {
		t.Error("installation should consume simulated time")
	}
	// All computes marked installed in the frontend DB.
	for _, rec := range ins.DB.HostsByAppliance(rocks.ApplianceCompute) {
		if !rec.Installed {
			t.Errorf("%s not marked installed", rec.Name)
		}
	}
	if len(ins.Log()) == 0 {
		t.Error("installer log empty")
	}
}

func TestDisklessComputeRejected(t *testing.T) {
	// The original LittleFe (diskless Atoms) cannot be Rocks-provisioned —
	// the very constraint that motivated the paper's hardware modification.
	c := cluster.NewLittleFeOriginal()
	ins := testInstaller(t, c)
	eng := sim.NewEngine()
	if _, err := ins.InstallFrontend(eng); err != nil {
		t.Fatal(err) // head has a disk, fine
	}
	if err := ins.DiscoverComputes(); err != nil {
		t.Fatal(err)
	}
	_, err := ins.InstallCompute(eng, c.Computes[0].Name)
	if !errors.Is(err, ErrDiskless) {
		t.Fatalf("err = %v, want ErrDiskless", err)
	}
}

func TestDisklessLimulusRejectedByRocksButVendorWorks(t *testing.T) {
	c := cluster.NewLimulusHPC200()
	ins := testInstaller(t, c)
	eng := sim.NewEngine()
	if _, err := ins.InstallFrontend(eng); err != nil {
		t.Fatal(err)
	}
	if err := ins.DiscoverComputes(); err != nil {
		t.Fatal(err)
	}
	if _, err := ins.InstallCompute(eng, "n1"); !errors.Is(err, ErrDiskless) {
		t.Fatalf("Rocks on diskless Limulus node: err = %v, want ErrDiskless", err)
	}
	// Vendor tooling handles diskless nodes.
	base := []*rpm.Package{
		rpm.NewPackage("kernel", "2.6.32-431.el6", rpm.ArchX86_64).Build(),
		rpm.NewPackage("openssh-server", "5.3p1-94.el6", rpm.ArchX86_64).Build(),
	}
	if err := VendorProvision(eng, c, "Scientific Linux 6.5", base); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes() {
		if n.OS() != "Scientific Linux 6.5" {
			t.Errorf("%s OS = %q", n.Name, n.OS())
		}
		if !n.Packages().Has("kernel") {
			t.Errorf("%s missing base packages", n.Name)
		}
	}
}

func TestComputeBeforeFrontendRejected(t *testing.T) {
	c := cluster.NewLittleFe()
	ins := testInstaller(t, c)
	eng := sim.NewEngine()
	if err := ins.DiscoverComputes(); err != nil {
		t.Fatal(err)
	}
	if _, err := ins.InstallCompute(eng, "compute-0-1"); err == nil {
		t.Fatal("kickstart before frontend install should fail")
	}
}

func TestComputeNotRegisteredRejected(t *testing.T) {
	c := cluster.NewLittleFe()
	ins := testInstaller(t, c)
	eng := sim.NewEngine()
	if _, err := ins.InstallFrontend(eng); err != nil {
		t.Fatal(err)
	}
	if _, err := ins.InstallCompute(eng, "compute-0-1"); err == nil ||
		!strings.Contains(err.Error(), "insert-ethers") {
		t.Fatal("unregistered node should be rejected with insert-ethers hint")
	}
	if _, err := ins.InstallCompute(eng, "ghost"); err == nil {
		t.Fatal("unknown node should be rejected")
	}
}

func TestReinstall(t *testing.T) {
	c := cluster.NewLittleFe()
	ins := testInstaller(t, c)
	eng := sim.NewEngine()
	installAll(t, ins, eng)
	node, _ := c.Lookup("compute-0-2")
	// Simulate drift: extra service running.
	node.StartService("rogue-daemon")
	before := eng.Now()
	r, err := ins.Reinstall(eng, "compute-0-2")
	if err != nil {
		t.Fatal(err)
	}
	if node.ServiceRunning("rogue-daemon") {
		t.Error("reinstall should wipe drifted state")
	}
	if !node.ServiceRunning("pbs_mom") {
		t.Error("reinstall should restore configured services")
	}
	if r.Duration <= 0 || eng.Now() == before {
		t.Error("reinstall should consume time")
	}
	if _, err := ins.Reinstall(eng, "ghost"); err == nil {
		t.Fatal("reinstalling unknown node should fail")
	}
}

func TestInstallTimeScalesWithPackageCount(t *testing.T) {
	// A distribution with more packages takes longer per node.
	small := cluster.NewLittleFe()
	insSmall := testInstaller(t, small)
	engSmall := sim.NewEngine()
	rSmall := installAll(t, insSmall, engSmall)

	big := cluster.NewLittleFe()
	d := testDistro(t)
	extra := rocks.NewRoll("bio", "6.1.1", "Bioinformatics utilities", true)
	for i := 0; i < 40; i++ {
		extra.AddPackages(rocks.ApplianceCompute,
			rpm.NewPackage(strings.Repeat("x", 1)+"bio-pkg-"+string(rune('a'+i%26))+string(rune('0'+i/26)), "1.0-1", rpm.ArchX86_64).Build())
	}
	dBig, err := rocks.BuildDistribution("xcbc+bio", append([]*rocks.Roll{}, d.Rolls...)[0], d.Rolls[1], extra)
	if err != nil {
		t.Fatal(err)
	}
	g := rocks.DefaultGraph()
	rocks.AttachXSEDEFragments(g, "torque")
	insBig := NewInstaller(big, rocks.NewFrontendDB(dBig), g, "CentOS 6.5")
	engBig := sim.NewEngine()
	rBig := installAll(t, insBig, engBig)
	if engBig.Now() <= engSmall.Now() {
		t.Errorf("bigger distro should take longer: %v vs %v", engBig.Now(), engSmall.Now())
	}
	if rBig[1].Packages <= rSmall[1].Packages {
		t.Errorf("bigger distro should install more packages per compute")
	}
}

// TestLogLinesDoNotAllocate: a build's progress lines are stored as the
// values they name, so writing one costs nothing beyond the log slice
// itself — no format arguments boxed, no text rendered until Log is read —
// and Log still renders exactly the lines the build always printed.
func TestLogLinesDoNotAllocate(t *testing.T) {
	ins := testInstaller(t, cluster.NewLittleFe())
	cost, refused := 6*time.Minute+34*time.Second, errors.New("no disk")
	node := ins.Cluster.Computes[3].Name
	lines := func() {
		ins.log = append(ins.log[:0],
			logEntry{kind: logFrontend, node: ins.Cluster.Frontend.Name, n: 151, m: 7, cost: cost},
			logEntry{kind: logDiscovered, node: node, n: 259},
			logEntry{kind: logKickstarted, node: node, n: 140, cost: cost},
			logEntry{kind: logReinstall, node: node},
			logEntry{kind: logGaveUp, node: node, n: 3, err: refused},
			logEntry{kind: logRefused, node: node, err: refused})
	}
	lines() // the slice is sized for a clean build: 11 lines
	if n := testing.AllocsPerRun(100, lines); n != 0 {
		t.Errorf("six log lines allocate %v times, want 0", n)
	}
	want := []string{
		"frontend littlefe-head installed: 151 packages, 7 actions, 6m34s",
		"insert-ethers: discovered compute-0-4 (52:54:00:00:01:03)",
		"compute compute-0-4 kickstarted: 140 packages in 6m34s",
		"reinstall requested for compute-0-4",
		"compute compute-0-4 quarantined after 3 attempt(s): no disk",
		"compute compute-0-4 quarantined: no disk",
	}
	if got := ins.Log(); !slices.Equal(got, want) {
		t.Errorf("Log() =\n%q\nwant\n%q", got, want)
	}
	for _, rank := range []int{0, 15, 16, 255, 256, 4095, 65535, 70000} {
		if got, want := computeMAC(rank), fmt.Sprintf("52:54:00:%02x:%02x:%02x", 0, rank/256, rank%256); got != want {
			t.Errorf("computeMAC(%d) = %s, want %s", rank, got, want)
		}
	}
}
