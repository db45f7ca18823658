// Package verify implements cluster health and consistency checking — the
// operational counterpart of the paper's maintenance story ("clusters
// aren't maintained, kept secure, or upgraded"). It detects the drift that
// motivates Rocks reinstalls: compute nodes whose package sets diverge from
// the distribution, services that should be running but are not, powered-off
// nodes the frontend thinks are installed, and unmet package dependencies.
package verify

import (
	"fmt"
	"sort"
	"strings"

	"xcbc/internal/cluster"
	"xcbc/internal/rocks"
)

// Severity grades a finding.
type Severity int

// Severities.
const (
	Info Severity = iota
	Warning
	Critical
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "INFO"
	case Warning:
		return "WARN"
	case Critical:
		return "CRIT"
	}
	return "?"
}

// Finding is one health-check result.
type Finding struct {
	Node     string
	Severity Severity
	Check    string
	Detail   string
}

func (f Finding) String() string {
	return fmt.Sprintf("[%s] %s: %s: %s", f.Severity, f.Node, f.Check, f.Detail)
}

// Report is the outcome of a verification sweep.
type Report struct {
	Findings []Finding
}

// Healthy reports whether no warning-or-worse findings exist.
func (r *Report) Healthy() bool {
	for _, f := range r.Findings {
		if f.Severity >= Warning {
			return false
		}
	}
	return true
}

// Summary renders the report.
func (r *Report) Summary() string {
	var b strings.Builder
	status := "HEALTHY"
	if !r.Healthy() {
		status = "UNHEALTHY"
	}
	fmt.Fprintf(&b, "cluster verification: %s (%d findings)\n", status, len(r.Findings))
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	return b.String()
}

// Checker verifies a cluster against its frontend database and expected
// service sets.
type Checker struct {
	Cluster *cluster.Cluster
	DB      *rocks.FrontendDB
	// ComputeServices are services every installed compute must run.
	ComputeServices []string
	// FrontendServices are services the frontend must run.
	FrontendServices []string
}

// Run performs the full verification sweep.
func (c *Checker) Run() *Report {
	rep := &Report{}
	c.checkFrontend(rep)
	c.checkComputePower(rep)
	c.checkComputeServices(rep)
	c.checkPackageDrift(rep)
	c.checkDependencyClosure(rep)
	sort.SliceStable(rep.Findings, func(i, j int) bool {
		if rep.Findings[i].Severity != rep.Findings[j].Severity {
			return rep.Findings[i].Severity > rep.Findings[j].Severity
		}
		return rep.Findings[i].Node < rep.Findings[j].Node
	})
	return rep
}

func (c *Checker) checkFrontend(rep *Report) {
	fe := c.Cluster.Frontend
	if fe.Power() != cluster.PowerOn {
		rep.Findings = append(rep.Findings, Finding{
			Node: fe.Name, Severity: Critical, Check: "power",
			Detail: "frontend is powered off",
		})
		return
	}
	if fe.OS() == "" {
		rep.Findings = append(rep.Findings, Finding{
			Node: fe.Name, Severity: Critical, Check: "os",
			Detail: "frontend has no operating system installed",
		})
	}
	for _, svc := range c.FrontendServices {
		if !fe.ServiceRunning(svc) {
			rep.Findings = append(rep.Findings, Finding{
				Node: fe.Name, Severity: Critical, Check: "service",
				Detail: fmt.Sprintf("required frontend service %s not running", svc),
			})
		}
	}
}

func (c *Checker) checkComputePower(rep *Report) {
	if c.DB == nil {
		return
	}
	for _, rec := range c.DB.HostsByAppliance(rocks.ApplianceCompute) {
		n, ok := c.Cluster.Lookup(rec.Name)
		if !ok {
			rep.Findings = append(rep.Findings, Finding{
				Node: rec.Name, Severity: Warning, Check: "inventory",
				Detail: "in frontend database but not physically present",
			})
			continue
		}
		if rec.Installed && n.Power() == cluster.PowerOff {
			rep.Findings = append(rep.Findings, Finding{
				Node: rec.Name, Severity: Info, Check: "power",
				Detail: "installed node is powered off (power management or failure)",
			})
		}
		if !rec.Installed && n.Power() == cluster.PowerOn && n.OS() != "" {
			rep.Findings = append(rep.Findings, Finding{
				Node: rec.Name, Severity: Warning, Check: "inventory",
				Detail: "node runs an OS but the frontend database says not installed",
			})
		}
	}
}

func (c *Checker) checkComputeServices(rep *Report) {
	for _, n := range c.Cluster.Computes {
		if n.Power() != cluster.PowerOn || n.OS() == "" {
			continue
		}
		for _, svc := range c.ComputeServices {
			if !n.ServiceRunning(svc) {
				rep.Findings = append(rep.Findings, Finding{
					Node: n.Name, Severity: Critical, Check: "service",
					Detail: fmt.Sprintf("required compute service %s not running", svc),
				})
			}
		}
	}
}

// checkPackageDrift compares each powered-on compute's package set against
// the majority: packages present on most computes but missing from one
// (or vice versa) indicate drift that a Rocks reinstall would fix.
func (c *Checker) checkPackageDrift(rep *Report) {
	type nodeSet struct {
		name string
		pkgs map[string]string // name -> EVR
	}
	var sets []nodeSet
	for _, n := range c.Cluster.Computes {
		if n.Power() != cluster.PowerOn || n.OS() == "" {
			continue
		}
		pkgs := make(map[string]string)
		for _, p := range n.Packages().Installed() {
			pkgs[p.Name] = p.EVR.String()
		}
		sets = append(sets, nodeSet{n.Name, pkgs})
	}
	if len(sets) < 2 {
		return
	}
	// Majority package->EVR.
	votes := make(map[string]map[string]int)
	for _, s := range sets {
		for name, evr := range s.pkgs {
			if votes[name] == nil {
				votes[name] = make(map[string]int)
			}
			votes[name][evr]++
		}
	}
	quorum := len(sets)/2 + 1
	// Walk packages and candidate EVRs in sorted order: Findings order is
	// part of the report (and the golden traces), and the majority pick
	// must not depend on which EVR a map range happens to visit first —
	// ties break toward the smallest EVR string.
	names := make([]string, 0, len(votes))
	for name := range votes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		evrVotes := votes[name]
		evrs := make([]string, 0, len(evrVotes))
		for evr := range evrVotes {
			evrs = append(evrs, evr)
		}
		sort.Strings(evrs)
		majorityEVR, count := "", 0
		total := 0
		for _, evr := range evrs {
			n := evrVotes[evr]
			total += n
			if n > count {
				majorityEVR, count = evr, n
			}
		}
		if count < quorum {
			continue // no consensus on this package; skip
		}
		for _, s := range sets {
			evr, present := s.pkgs[name]
			switch {
			case !present && total >= quorum:
				rep.Findings = append(rep.Findings, Finding{
					Node: s.name, Severity: Warning, Check: "drift",
					Detail: fmt.Sprintf("package %s missing (majority has %s)", name, majorityEVR),
				})
			case present && evr != majorityEVR:
				rep.Findings = append(rep.Findings, Finding{
					Node: s.name, Severity: Warning, Check: "drift",
					Detail: fmt.Sprintf("package %s at %s differs from majority %s", name, evr, majorityEVR),
				})
			}
		}
	}
}

func (c *Checker) checkDependencyClosure(rep *Report) {
	for _, n := range c.Cluster.Nodes() {
		if n.Power() != cluster.PowerOn || n.OS() == "" {
			continue
		}
		for _, req := range n.Packages().UnmetRequires() {
			rep.Findings = append(rep.Findings, Finding{
				Node: n.Name, Severity: Critical, Check: "rpmdb",
				Detail: fmt.Sprintf("unmet dependency: %s", req),
			})
		}
	}
}
