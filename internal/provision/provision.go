// Package provision simulates Rocks-style bare-metal provisioning: the
// frontend installs from the distribution media, compute nodes PXE-boot and
// kickstart from the frontend, and post-install graph actions configure
// services. Installation consumes simulated time (per-stage and per-package
// costs) so the from-scratch XCBC path and the incremental XNIT path can be
// compared quantitatively.
//
// The package enforces the constraint the paper calls out: "Rocks does not
// support diskless installation", which is why the modified LittleFe adds
// mSATA drives and why the diskless Limulus can only be converted via XNIT.
package provision

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"xcbc/internal/cluster"
	"xcbc/internal/rocks"
	"xcbc/internal/rpm"
	"xcbc/internal/sim"
)

// ErrDiskless is returned when Rocks provisioning targets a node without a
// local disk.
var ErrDiskless = errors.New("provision: Rocks does not support diskless installation")

// Stage durations model a CentOS 6 kickstart. Per-package time dominates for
// the ~150-package XCBC set; stage constants cover partitioning, image copy,
// and post-install configuration.
const (
	StagePXEBoot     = 30 * time.Second
	StagePartition   = 45 * time.Second
	StageBaseImage   = 4 * time.Minute
	StagePostInstall = 90 * time.Second
	PerPackage       = 2 * time.Second
	PerAction        = 1 * time.Second
)

// Plan is what every install from one distribution and kickstart graph
// repeats, worked out once: a Kickstart per appliance. NewPlan builds it
// and nothing writes it afterwards, so one plan serves every installer of
// the same recipe, on any goroutine.
type Plan struct {
	Frontend, Compute Kickstart
}

// Kickstart is one appliance's install: the post-install package database
// every node of the appliance adopts, the graph's post-install actions,
// and the services and attributes those actions leave on the node. Nodes
// adopt the database and the maps by reference and copy them on their
// first divergent write.
type Kickstart struct {
	DB       *rpm.DB
	Actions  []string
	Services map[string]bool
	Attrs    map[string]string
}

// cost is the simulated time one install of the appliance takes from
// partitioning on: stages, then per package and per action.
func (ks *Kickstart) cost() time.Duration {
	return StagePartition + StageBaseImage + StagePostInstall +
		time.Duration(len(ks.DB.Installed()))*PerPackage + time.Duration(len(ks.Actions))*PerAction
}

// NewPlan installs each appliance's package set from the distribution in
// one transaction on an empty database, which it freezes for the
// appliance's nodes to share, and flattens the appliance's post-install
// actions from the graph.
func NewPlan(dist *rocks.Distribution, g *rocks.Graph) (*Plan, error) {
	p := new(Plan)
	for _, a := range []struct {
		app rocks.Appliance
		ks  *Kickstart
	}{{rocks.ApplianceFrontend, &p.Frontend}, {rocks.ApplianceCompute, &p.Compute}} {
		var tx rpm.Transaction
		for _, pkg := range dist.PackagesFor(a.app) {
			tx.Install(pkg)
		}
		a.ks.DB = rpm.NewDB()
		if err := tx.Run(a.ks.DB); err != nil {
			return nil, fmt.Errorf("provision: %s package install: %w", a.app, err)
		}
		a.ks.DB.Freeze()
		actions, err := g.ActionsFor(string(a.app))
		if err != nil {
			return nil, err
		}
		a.ks.Actions = actions
		a.ks.Services, a.ks.Attrs = systemState(actions)
	}
	return p, nil
}

// Installer drives provisioning of one cluster from one frontend database.
// A node is its position in Cluster.Computes; names are rendered only in
// results, errors and the log.
type Installer struct {
	Cluster *cluster.Cluster
	DB      *rocks.FrontendDB
	OSName  string

	plan *Plan

	// The log: lines of a clean build are only counted, by kind (see
	// record), and Log renders them from the plan and the cluster; the
	// first line that departs from one, and every line after it, is kept.
	clean [logKickstarted + 1]int
	log   []logEntry

	// Hook, when non-nil, runs at the start of every node install attempt
	// (attempt numbering starts at 1). Returning an error fails the attempt
	// before the node is touched; wave installs treat such failures as
	// transient and retry with backoff. It is the seam for fault injection
	// in tests and chaos runs.
	Hook func(node string, attempt int) error
}

// NewInstaller binds a cluster, frontend DB, and install plan.
func NewInstaller(c *cluster.Cluster, db *rocks.FrontendDB, plan *Plan, osName string) *Installer {
	return &Installer{Cluster: c, DB: db, OSName: osName, plan: plan}
}

// logEntry is one progress line, kept as the values it names rather than
// as text; what an install costs comes from the plan when it is rendered.
type logEntry struct {
	kind     logKind
	node     int   // compute index; unused for the frontend's line
	attempts int   // logGaveUp
	err      error // logGaveUp, logRefused
}

type logKind uint8

const (
	logFrontend logKind = iota
	logDiscovered
	logKickstarted
	logReinstall
	logGaveUp
	logRefused
)

// record logs e. A clean build logs the frontend's line, then one
// discovery per compute in order, then one kickstart per compute in order:
// while the log is still that, e is counted, and from the first line that
// departs from it on, kept.
func (ins *Installer) record(e logEntry) {
	c := &ins.clean
	if len(ins.log) == 0 && e.kind <= logKickstarted && e.node == c[e.kind] &&
		!slices.ContainsFunc(c[e.kind+1:], func(n int) bool { return n > 0 }) {
		c[e.kind]++
		return
	}
	ins.log = append(ins.log, e)
}

func (ins *Installer) line(e logEntry) string {
	if e.kind == logFrontend {
		fe := &ins.plan.Frontend
		return fmt.Sprintf("frontend %s installed: %d packages, %d actions, %v",
			ins.Cluster.Frontend.Name, len(fe.DB.Installed()), len(fe.Actions), fe.cost())
	}
	name := ins.Cluster.Computes[e.node].Name
	switch e.kind {
	case logDiscovered:
		return fmt.Sprintf("insert-ethers: discovered %s (%s)", name, computeMAC(e.node))
	case logKickstarted:
		ks := &ins.plan.Compute
		return fmt.Sprintf("compute %s kickstarted: %d packages in %v", name, len(ks.DB.Installed()), StagePXEBoot+ks.cost())
	case logReinstall:
		return "reinstall requested for " + name
	case logGaveUp:
		return fmt.Sprintf("compute %s quarantined after %d attempt(s): %v", name, e.attempts, e.err)
	default:
		return fmt.Sprintf("compute %s quarantined: %v", name, e.err)
	}
}

// Log renders the human-readable record of what happened; the training
// examples surface it as curriculum output.
func (ins *Installer) Log() []string {
	var out []string
	for kind, n := range ins.clean {
		for i := range n {
			out = append(out, ins.line(logEntry{kind: logKind(kind), node: i}))
		}
	}
	for _, e := range ins.log {
		out = append(out, ins.line(e))
	}
	return out
}

// Result summarizes one node's install.
type Result struct {
	Node     string
	Packages int
	Duration time.Duration

	index, attempts int // the compute and the attempts its install took
}

// InstallFrontend provisions the frontend from the distribution media,
// running on the simulation engine. The frontend must have a disk (Rocks
// installs a full OS onto it).
func (ins *Installer) InstallFrontend(eng *sim.Engine) (*Result, error) {
	fe := ins.Cluster.Frontend
	if !fe.HasDisk() {
		return nil, fmt.Errorf("%w: frontend %s has no disk", ErrDiskless, fe.Name)
	}
	fe.SetPower(cluster.PowerOn)
	start := eng.Now()
	ks := &ins.plan.Frontend
	pkgs, cost := len(ks.DB.Installed()), ks.cost()
	fe.WipePackages()
	fe.AdoptPackages(ks.DB)
	eng.RunUntil(eng.Now() + sim.Time(cost))
	fe.AdoptSystemState(ks.Services, ks.Attrs)
	fe.SetOS(ins.OSName)
	ins.record(logEntry{kind: logFrontend})
	return &Result{Node: fe.Name, Packages: pkgs, Duration: (eng.Now() - start).Duration()}, nil
}

// DiscoverComputes registers every compute node in the frontend database,
// the insert-ethers phase of a Rocks build.
func (ins *Installer) DiscoverComputes() error {
	for i := range ins.Cluster.Computes {
		if err := ins.DB.AddHost(i); err != nil {
			return err
		}
		ins.record(logEntry{kind: logDiscovered, node: i})
	}
	return nil
}

// computeMAC is the address insert-ethers sees from the compute of the given
// rank: fmt.Sprintf("52:54:00:%02x:%02x:%02x", 0, rank/256, rank%256).
func computeMAC(rank int) string {
	var buf [24]byte
	mac := append(buf[:0], "52:54:00:00"...)
	for _, octet := range [2]int{rank / 256, rank % 256} {
		mac = append(mac, ':')
		if octet < 16 {
			mac = append(mac, '0')
		}
		mac = strconv.AppendInt(mac, int64(octet), 16)
	}
	return string(mac)
}

// kickstart validates and starts compute i's install, leaving its commit
// pending: post-install actions, the OS marker, and the frontend-database
// installed flag all wait for commit. Splitting the two phases lets a wave
// overlap many kickstarts in simulated time and commit them together once
// the wave's clock advance is done. The frontend must already be
// installed; the node must have a disk and be registered.
func (ins *Installer) kickstart(i int) (Result, error) {
	node := ins.Cluster.Computes[i]
	switch {
	case ins.Cluster.Frontend.OS() == "":
		return Result{}, fmt.Errorf("provision: frontend not installed; cannot kickstart %s", node.Name)
	case !ins.DB.Registered(i):
		return Result{}, fmt.Errorf("provision: node %s not in frontend database (run insert-ethers)", node.Name)
	case !node.HasDisk():
		return Result{}, fmt.Errorf("%w: node %s", ErrDiskless, node.Name)
	}
	node.SetPower(cluster.PowerOn)
	ks := &ins.plan.Compute
	node.WipePackages()
	node.AdoptPackages(ks.DB)
	cost := StagePXEBoot + ks.cost()
	return Result{Node: node.Name, Packages: len(ks.DB.Installed()), Duration: cost, index: i, attempts: 1}, nil
}

// commit finalizes a pending install. r.Duration is the simulated time the
// node's install consumed: for a wave member this includes failed-attempt
// and backoff time, and the wave as a whole advanced the clock by its
// slowest member.
func (ins *Installer) commit(r *Result) error {
	ks := &ins.plan.Compute
	node := ins.Cluster.Computes[r.index]
	node.AdoptSystemState(ks.Services, ks.Attrs)
	node.SetOS(ins.OSName)
	if err := ins.DB.MarkInstalled(r.index, true); err != nil {
		return err
	}
	ins.record(logEntry{kind: logKickstarted, node: r.index})
	return nil
}

// InstallCompute kickstarts one compute node sequentially: the simulation
// clock advances by the full install cost before the next node can start.
// Wave installs (InstallWave) overlap these costs instead.
func (ins *Installer) InstallCompute(eng *sim.Engine, name string) (*Result, error) {
	i := ins.Cluster.ComputeIndex(name)
	if i < 0 {
		return nil, fmt.Errorf("provision: no such node %s", name)
	}
	if err := ins.attempt(i, 1); err != nil {
		return nil, err
	}
	r, err := ins.kickstart(i)
	if err != nil {
		return nil, err
	}
	eng.RunUntil(eng.Now() + sim.Time(r.Duration))
	if err := ins.commit(&r); err != nil {
		return nil, err
	}
	return &r, nil
}

// Reinstall wipes and re-kickstarts a compute node — the Rocks answer to
// configuration drift ("rocks set host boot action=install; reboot").
func (ins *Installer) Reinstall(eng *sim.Engine, name string) (*Result, error) {
	i := ins.Cluster.ComputeIndex(name)
	if i < 0 {
		return nil, fmt.Errorf("provision: no such node %s", name)
	}
	ins.Cluster.Computes[i].WipePackages()
	if err := ins.DB.MarkInstalled(i, false); err != nil {
		return nil, err
	}
	ins.record(logEntry{kind: logReinstall, node: i})
	return ins.InstallCompute(eng, name)
}

// systemState is the node services and attributes an action list leaves
// behind.
func systemState(actions []string) (map[string]bool, map[string]string) {
	var services map[string]bool
	var attrs map[string]string
	for _, a := range actions {
		switch {
		case strings.HasPrefix(a, "enable-service:"):
			if services == nil {
				services = make(map[string]bool)
			}
			services[strings.TrimPrefix(a, "enable-service:")] = true
		case strings.HasPrefix(a, "mkdir:"):
			if attrs == nil {
				attrs = make(map[string]string)
			}
			attrs["dir:"+strings.TrimPrefix(a, "mkdir:")] = "present"
		}
	}
	return services, attrs
}

// VendorProvision models what the Limulus ships with: vendor tooling that
// *can* handle diskless nodes (NFS-root), installing a base OS and a minimal
// package set without Rocks. It is intentionally not the XCBC stack — the
// XNIT workflow upgrades it in place afterwards.
func VendorProvision(eng *sim.Engine, c *cluster.Cluster, osName string, basePkgs []*rpm.Package) error {
	for n := range c.All() {
		n.SetPower(cluster.PowerOn)
		n.WipePackages()
		var tx rpm.Transaction
		for _, p := range basePkgs {
			tx.Install(p)
		}
		if err := tx.Run(n.MutablePackages()); err != nil {
			return fmt.Errorf("provision: vendor install on %s: %w", n.Name, err)
		}
		n.SetOS(osName)
		n.StartService("sshd")
	}
	eng.RunUntil(eng.Now() + sim.Time(StageBaseImage+time.Duration(len(basePkgs)*c.NodeCount())*PerPackage/4))
	return nil
}
