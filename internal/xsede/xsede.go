// Package xsede defines the compatibility reference the paper builds
// against: the software stack of a current XSEDE cluster (Stampede is the
// paper's named exemplar of "current best practices"), the path layout XSEDE
// clusters share, and a checker that scores how "XSEDE-compatible" a node
// is — the property XCBC and XNIT exist to establish.
package xsede

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"

	"xcbc/internal/rpm"
)

// Reference is the stack a compatible cluster must carry: package names with
// minimum versions, directories that must exist, and commands users expect
// to work identically everywhere.
type Reference struct {
	Name     string
	Packages map[string]string // name -> minimum version (empty = any)
	Dirs     []string          // path-layout conventions, e.g. /opt/apps
	Commands map[string]string // command -> package that provides it
}

// StampedeReference returns the paper's reference point: the subset of the
// Stampede software list that XCBC mirrors, with the XSEDE path layout and
// the portable command set.
func StampedeReference() *Reference {
	return &Reference{
		Name: "Stampede (XSEDE best practices)",
		Packages: map[string]string{
			"gcc":                   "4.4",
			"openmpi":               "1.6",
			"mpich2":                "1.9",
			"fftw":                  "3.3",
			"hdf5":                  "1.8",
			"netcdf":                "4.1",
			"python":                "2.6",
			"numpy":                 "1.4",
			"R":                     "3.0",
			"gromacs":               "4.6",
			"lammps":                "",
			"ncbi-blast":            "2.2",
			"papi":                  "5.1",
			"boost":                 "1.41",
			"environment-modules":   "3.2",
			"torque":                "4.2",
			"maui":                  "3.3",
			"globus-connect-server": "",
		},
		Dirs: []string{"/opt/apps", "/opt/modulefiles", "/export"},
		Commands: map[string]string{
			"qsub":   "torque",
			"qstat":  "torque",
			"qdel":   "torque",
			"mpirun": "openmpi",
			"module": "environment-modules",
			"gcc":    "gcc",
			"R":      "R",
			"python": "python",
		},
	}
}

// WithScheduler returns a copy of the reference with the job-management
// packages and commands rewritten for the chosen scheduler (Table 1's
// "Torque, SLURM, sge — choose one"). The default reference assumes Torque.
func (r *Reference) WithScheduler(sched string) (*Reference, error) {
	out := &Reference{Name: r.Name, Packages: map[string]string{}, Commands: map[string]string{}}
	out.Dirs = append([]string(nil), r.Dirs...)
	for k, v := range r.Packages {
		if k == "torque" || k == "maui" || k == "slurm" || k == "sge" {
			continue
		}
		out.Packages[k] = v
	}
	for k, v := range r.Commands {
		if v == "torque" || v == "slurm" || v == "sge" {
			continue
		}
		out.Commands[k] = v
	}
	switch sched {
	case "torque":
		out.Packages["torque"] = "4.2"
		out.Packages["maui"] = "3.3"
		out.Commands["qsub"] = "torque"
		out.Commands["qstat"] = "torque"
		out.Commands["qdel"] = "torque"
	case "slurm":
		out.Packages["slurm"] = "14.03"
		out.Commands["sbatch"] = "slurm"
		out.Commands["squeue"] = "slurm"
		out.Commands["scancel"] = "slurm"
	case "sge":
		out.Packages["sge"] = "8.1"
		out.Commands["qsub"] = "sge"
		out.Commands["qstat"] = "sge"
		out.Commands["qdel"] = "sge"
	default:
		return nil, fmt.Errorf("xsede: unknown scheduler %q", sched)
	}
	return out, nil
}

// Check is one compatibility finding.
type Check struct {
	Kind   string // "package", "version", "dir", "command"
	Detail string
	OK     bool
}

// Report is the outcome of checking a node against a reference.
type Report struct {
	Reference string
	Checks    []Check
}

// Passed returns the number of successful checks.
func (r *Report) Passed() int {
	n := 0
	for _, c := range r.Checks {
		if c.OK {
			n++
		}
	}
	return n
}

// Total returns the number of checks performed.
func (r *Report) Total() int { return len(r.Checks) }

// Score returns the fraction of checks passed in [0,1].
func (r *Report) Score() float64 {
	if len(r.Checks) == 0 {
		return 0
	}
	return float64(r.Passed()) / float64(len(r.Checks))
}

// Failures lists the failed checks.
func (r *Report) Failures() []Check {
	var out []Check
	for _, c := range r.Checks {
		if !c.OK {
			out = append(out, c)
		}
	}
	return out
}

// Summary renders the report for administrators.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "XSEDE compatibility vs %s: %d/%d checks passed (%.0f%%)\n",
		r.Reference, r.Passed(), r.Total(), 100*r.Score())
	for _, c := range r.Failures() {
		fmt.Fprintf(&b, "  FAIL [%s] %s\n", c.Kind, c.Detail)
	}
	return b.String()
}

// NodeState is what the checker needs to know about a node; cluster nodes
// and test doubles both satisfy it.
type NodeState interface {
	Packages() *rpm.DB
	Attr(key string) (string, bool)
}

// CheckNode evaluates a node against the reference: package presence and
// minimum versions, directory layout (recorded as "dir:<path>" attributes by
// provisioning), and command availability via the owning packages.
func CheckNode(ref *Reference, node NodeState) *Report {
	rep := &Report{Reference: ref.Name}
	flatten(ref).walk(node, func(f finding) {
		rep.Checks = append(rep.Checks, Check{Kind: f.kind, Detail: f.detail(), OK: f.ok})
	})
	return rep
}

// CountNode returns what CheckNode's report would count for a node checked
// against the Stampede reference adjusted for sched ("" leaves it as it
// is) — Passed() and Total() — without building the report. A scheduler
// WithScheduler rejects fails with the same error.
func CountNode(sched string, node NodeState) (passed, total int, err error) {
	ref, ok := flatRefs()[sched]
	if !ok {
		_, err := StampedeReference().WithScheduler(sched)
		return 0, 0, err
	}
	ref.walk(node, func(f finding) {
		total++
		if f.ok {
			passed++
		}
	})
	return passed, total, nil
}

// flatRef is a Reference laid out for walking: sorted slices instead of
// maps, attribute keys joined.
type flatRef struct {
	pkgs []flatPkg
	dirs []flatDir
	cmds []flatCmd
}

type flatPkg struct{ name, min string }  // min "": any installed build passes
type flatDir struct{ path, attr string } // attr is "dir:<path>", as provisioning records it
type flatCmd struct{ name, owner string }

func flatten(ref *Reference) *flatRef {
	f := &flatRef{}
	for _, name := range slices.Sorted(maps.Keys(ref.Packages)) {
		f.pkgs = append(f.pkgs, flatPkg{name, ref.Packages[name]})
	}
	for _, dir := range ref.Dirs {
		f.dirs = append(f.dirs, flatDir{dir, "dir:" + dir})
	}
	for _, cmd := range slices.Sorted(maps.Keys(ref.Commands)) {
		f.cmds = append(f.cmds, flatCmd{cmd, ref.Commands[cmd]})
	}
	return f
}

// flatRefs holds the Stampede reference under each scheduler choice ("" is
// the unadjusted reference), derived from StampedeReference and
// WithScheduler on first use and never written again. The references are
// constant; what they are checked against is read live on every call.
var flatRefs = sync.OnceValue(func() map[string]*flatRef {
	refs := map[string]*flatRef{"": flatten(StampedeReference())}
	for _, sched := range []string{"torque", "slurm", "sge"} {
		ref, err := StampedeReference().WithScheduler(sched)
		if err != nil {
			panic(err)
		}
		refs[sched] = flatten(ref)
	}
	return refs
})

// finding is one check's outcome, its report text not yet rendered.
type finding struct {
	kind string // "package", "version", "dir", "command"
	ok   bool
	name string  // the package, directory or command checked
	have rpm.EVR // "version": the installed build
	want string  // "version": the minimum; "command": the owning package
}

// walk runs every check of the reference against node, in report order,
// and hands each outcome to visit. It is the only statement of the rules:
// the report and the counts are two visitors.
func (ref *flatRef) walk(node NodeState, visit func(finding)) {
	db := node.Packages()
	for _, pkg := range ref.pkgs {
		p := db.Newest(pkg.name)
		visit(finding{kind: "package", ok: p != nil, name: pkg.name})
		if p == nil || pkg.min == "" {
			continue
		}
		ok := p.EVR.Compare(rpm.EVR{Version: pkg.min}) >= 0
		visit(finding{kind: "version", ok: ok, name: pkg.name, have: p.EVR, want: pkg.min})
	}
	for _, dir := range ref.dirs {
		_, ok := node.Attr(dir.attr)
		visit(finding{kind: "dir", ok: ok, name: dir.path})
	}
	for _, cmd := range ref.cmds {
		visit(finding{kind: "command", ok: db.Has(cmd.owner), name: cmd.name, want: cmd.owner})
	}
}

// detail renders the outcome as the report prints it.
func (f finding) detail() string {
	switch {
	case f.kind == "package" && f.ok:
		return f.name + " installed"
	case f.kind == "package":
		return f.name + " not installed"
	case f.kind == "version" && f.ok:
		return fmt.Sprintf("%s %s >= %s", f.name, f.have, f.want)
	case f.kind == "version":
		return fmt.Sprintf("%s %s is older than required %s", f.name, f.have, f.want)
	case f.kind == "dir" && f.ok:
		return f.name + " present"
	case f.kind == "dir":
		return f.name + " missing"
	case f.ok:
		return fmt.Sprintf("command %q (from %s) available", f.name, f.want)
	}
	return fmt.Sprintf("command %q missing (package %s not installed)", f.name, f.want)
}
