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
	"strconv"
	"strings"
	"sync"
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

// Installer drives provisioning of one cluster from one frontend database.
type Installer struct {
	Cluster *cluster.Cluster
	DB      *rocks.FrontendDB
	Graph   *rocks.Graph
	OSName  string

	// log accumulates what happened as unrendered entries; Log formats them.
	log []logEntry

	// Hook, when non-nil, runs at the start of every node install attempt
	// (attempt numbering starts at 1). Returning an error fails the attempt
	// before the node is touched; wave installs treat such failures as
	// transient and retry with backoff. It is the seam for fault injection
	// in tests and chaos runs.
	Hook func(node string, attempt int) error

	// Quarantined lists compute nodes that exhausted their retries during a
	// wave build and were set aside instead of aborting the build.
	Quarantined []string
}

// NewInstaller binds a cluster, frontend DB, and kickstart graph.
func NewInstaller(c *cluster.Cluster, db *rocks.FrontendDB, g *rocks.Graph, osName string) *Installer {
	return &Installer{
		Cluster: c, DB: db, Graph: g, OSName: osName,
		// A clean build logs one frontend line and two per compute; sizing
		// the log to exactly that avoids per-line slice doubling and keeps
		// no slack on the thousands of installers a fleet retains.
		log: make([]logEntry, 0, 2*len(c.Computes)+1),
	}
}

// logEntry is one progress line, kept as the values it names rather than
// as text or boxed arguments: a fleet build logs thousands of lines that
// are rarely read, so appending one allocates nothing and rendering waits
// for a reader. Which of n, m, cost and err a line uses depends on its kind.
type logEntry struct {
	kind logKind
	node string
	n, m int
	cost time.Duration
	err  error
}

type logKind uint8

const (
	logFrontend    logKind = iota // n packages, m actions, cost
	logDiscovered                 // n rank, which fixes the MAC
	logKickstarted                // n packages, cost
	logReinstall
	logGaveUp  // n attempts, err from the last one
	logRefused // err from the kickstart
)

func (e logEntry) String() string {
	switch e.kind {
	case logFrontend:
		return fmt.Sprintf("frontend %s installed: %d packages, %d actions, %v", e.node, e.n, e.m, e.cost)
	case logDiscovered:
		return fmt.Sprintf("insert-ethers: discovered %s (%s)", e.node, computeMAC(e.n))
	case logKickstarted:
		return fmt.Sprintf("compute %s kickstarted: %d packages in %v", e.node, e.n, e.cost)
	case logReinstall:
		return "reinstall requested for " + e.node
	case logGaveUp:
		return fmt.Sprintf("compute %s quarantined after %d attempt(s): %v", e.node, e.n, e.err)
	default:
		return fmt.Sprintf("compute %s quarantined: %v", e.node, e.err)
	}
}

// Log renders the human-readable record of what happened; the training
// examples surface it as curriculum output.
func (ins *Installer) Log() []string {
	out := make([]string, len(ins.log))
	for i, e := range ins.log {
		out[i] = e.String()
	}
	return out
}

// Result summarizes one node's install.
type Result struct {
	Node     string
	Packages int
	Duration time.Duration
	Actions  int
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
	// The distribution validates each appliance's package set once and every
	// node adopts the shared result; re-running an identical install
	// transaction per node dominated heap profiles at fleet scale.
	set, err := ins.DB.Distribution().InstallSet(rocks.ApplianceFrontend)
	if err != nil {
		return nil, fmt.Errorf("provision: frontend package install: %w", err)
	}
	pkgs := set.Packages()
	fe.WipePackages()
	if err := fe.Packages().AdoptSet(set); err != nil {
		return nil, fmt.Errorf("provision: frontend package install: %w", err)
	}
	actions, err := ins.Graph.ActionsFor(string(rocks.ApplianceFrontend))
	if err != nil {
		return nil, err
	}
	cost := StagePartition + StageBaseImage + StagePostInstall +
		time.Duration(len(pkgs))*PerPackage + time.Duration(len(actions))*PerAction
	eng.RunUntil(eng.Now() + sim.Time(cost))
	applyActions(fe, actions)
	fe.SetOS(ins.OSName)
	ins.log = append(ins.log, logEntry{kind: logFrontend, node: fe.Name, n: len(pkgs), m: len(actions), cost: cost})
	return &Result{Node: fe.Name, Packages: len(pkgs), Duration: (eng.Now() - start).Duration(), Actions: len(actions)}, nil
}

// DiscoverComputes registers every compute node in the frontend database,
// the insert-ethers phase of a Rocks build.
func (ins *Installer) DiscoverComputes() error {
	for i, n := range ins.Cluster.Computes {
		if _, err := ins.DB.AddHost(n.Name, rocks.ApplianceCompute, 0, i, computeMAC(i)); err != nil {
			return err
		}
		ins.log = append(ins.log, logEntry{kind: logDiscovered, node: n.Name, n: i})
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

// pendingInstall is a compute kickstart that has run its package
// transaction but not yet been committed: post-install actions, the OS
// marker, and the frontend-database installed flag all wait for commit.
// Splitting the two phases lets a wave overlap many kickstarts in simulated
// time and commit them together once the wave's clock advance is done.
type pendingInstall struct {
	node    *cluster.Node
	name    string
	pkgs    int
	actions []string
	cost    time.Duration
	// What the wave that started it knows: the attempts the node consumed
	// and the simulated time its install took, failed attempts included.
	attempts int
	took     time.Duration
}

// kickstart validates and starts one compute install, leaving it pending.
// The frontend must already be installed; the node must have a disk; the
// node must be registered.
func (ins *Installer) kickstart(name string) (pendingInstall, error) {
	var none pendingInstall
	if ins.Cluster.Frontend.OS() == "" {
		return none, fmt.Errorf("provision: frontend not installed; cannot kickstart %s", name)
	}
	node, ok := ins.Cluster.Lookup(name)
	if !ok {
		return none, fmt.Errorf("provision: no such node %s", name)
	}
	if _, registered := ins.DB.Host(name); !registered {
		return none, fmt.Errorf("provision: node %s not in frontend database (run insert-ethers)", name)
	}
	if !node.HasDisk() {
		return none, fmt.Errorf("%w: node %s", ErrDiskless, name)
	}
	node.SetPower(cluster.PowerOn)
	set, err := ins.DB.Distribution().InstallSet(rocks.ApplianceCompute)
	if err != nil {
		return none, fmt.Errorf("provision: %s package install: %w", name, err)
	}
	pkgs := set.Packages()
	node.WipePackages()
	if err := node.Packages().AdoptSet(set); err != nil {
		return none, fmt.Errorf("provision: %s package install: %w", name, err)
	}
	actions, err := ins.Graph.ActionsFor(string(rocks.ApplianceCompute))
	if err != nil {
		return none, err
	}
	cost := StagePXEBoot + StagePartition + StageBaseImage + StagePostInstall +
		time.Duration(len(pkgs))*PerPackage + time.Duration(len(actions))*PerAction
	return pendingInstall{node: node, name: name, pkgs: len(pkgs), actions: actions,
		cost: cost, attempts: 1, took: cost}, nil
}

// commit finalizes a pending install and fills in its Result, whose
// Duration is p.took: the simulated time the node's install consumed (for
// a wave member this includes failed-attempt and backoff time, and the
// wave as a whole advanced the clock by its slowest member).
func (ins *Installer) commit(p *pendingInstall, r *Result) error {
	applyActions(p.node, p.actions)
	p.node.SetOS(ins.OSName)
	if err := ins.DB.MarkInstalled(p.name, true); err != nil {
		return err
	}
	ins.log = append(ins.log, logEntry{kind: logKickstarted, node: p.name, n: p.pkgs, cost: p.cost})
	*r = Result{Node: p.name, Packages: p.pkgs, Duration: p.took, Actions: len(p.actions)}
	return nil
}

// InstallCompute kickstarts one compute node sequentially: the simulation
// clock advances by the full install cost before the next node can start.
// Wave installs (InstallWave) overlap these costs instead.
func (ins *Installer) InstallCompute(eng *sim.Engine, name string) (*Result, error) {
	if ins.Hook != nil {
		if err := ins.Hook(name, 1); err != nil {
			return nil, fmt.Errorf("provision: %s install attempt failed: %w", name, err)
		}
	}
	p, err := ins.kickstart(name)
	if err != nil {
		return nil, err
	}
	eng.RunUntil(eng.Now() + sim.Time(p.cost))
	r := new(Result)
	if err := ins.commit(&p, r); err != nil {
		return nil, err
	}
	return r, nil
}

// Reinstall wipes and re-kickstarts a compute node — the Rocks answer to
// configuration drift ("rocks set host boot action=install; reboot").
func (ins *Installer) Reinstall(eng *sim.Engine, name string) (*Result, error) {
	node, ok := ins.Cluster.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("provision: no such node %s", name)
	}
	node.WipePackages()
	if err := ins.DB.MarkInstalled(name, false); err != nil {
		return nil, err
	}
	ins.log = append(ins.log, logEntry{kind: logReinstall, node: name})
	return ins.InstallCompute(eng, name)
}

// applyActions executes graph post-install actions against a node. Every
// node of an appliance receives the identical action list (memoized by
// Graph.ActionsFor), so the resulting service/attribute maps are built once
// per list and adopted copy-on-write instead of re-parsed per node.
func applyActions(n *cluster.Node, actions []string) {
	services, attrs := systemStateFor(actions)
	n.AdoptSystemState(services, attrs)
}

// postInstallState is the node system state one action list produces.
// actions keeps the exact list both for collision verification and to pin
// the backing array alive so the pointer key stays unambiguous.
type postInstallState struct {
	actions  []string
	services map[string]bool
	attrs    map[string]string
}

type actionsKey struct {
	first *string
	n     int
}

var postStates sync.Map // actionsKey -> *postInstallState

// systemStateFor returns the shared services/attrs maps for an action list,
// building them on first sight. The key is the list's identity (first
// element address + length) — stable for the memoized slices ActionsFor
// hands out — verified element-by-element on every hit.
func systemStateFor(actions []string) (map[string]bool, map[string]string) {
	if len(actions) == 0 {
		return nil, nil
	}
	key := actionsKey{first: &actions[0], n: len(actions)}
	if v, ok := postStates.Load(key); ok {
		st := v.(*postInstallState)
		if sameActions(st.actions, actions) {
			return st.services, st.attrs
		}
		services, attrs := buildSystemState(actions)
		return services, attrs // key collision: serve uncached
	}
	services, attrs := buildSystemState(actions)
	st := &postInstallState{actions: actions, services: services, attrs: attrs}
	if v, loaded := postStates.LoadOrStore(key, st); loaded {
		if st2 := v.(*postInstallState); sameActions(st2.actions, actions) {
			return st2.services, st2.attrs
		}
	}
	return st.services, st.attrs
}

func sameActions(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func buildSystemState(actions []string) (map[string]bool, map[string]string) {
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
		if err := tx.Run(n.Packages()); err != nil {
			return fmt.Errorf("provision: vendor install on %s: %w", n.Name, err)
		}
		n.SetOS(osName)
		n.StartService("sshd")
	}
	eng.RunUntil(eng.Now() + sim.Time(StageBaseImage+time.Duration(len(basePkgs)*c.NodeCount())*PerPackage/4))
	return nil
}
