package analysis

import (
	"go/ast"
)

// wallClock lists the package-level names in "time" that read or schedule
// against the wall clock. Types (time.Time, time.Duration) and pure
// constructors (time.Date, time.Unix) are fine: holding a timestamp is
// deterministic, asking the host for one is not.
var wallClock = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// Detclock rejects wall-clock reads in deterministic packages. DESIGN.md
// decrees "no time.Now() on the trace path": a single ambient clock read
// in the sim, scenario, fleet, campaign, cluster, core, or WAL-replay
// packages breaks byte-identical golden traces in a way no unit test sees
// until the trace diff lands. Clock seams stay injected — a deterministic
// package may carry a func() time.Time field, but only a caller outside
// the set may default it to time.Now. The escape hatch for a reviewed
// wall-clock seam is `//detlint:wallclock <reason>`.
var Detclock = &Analyzer{
	Name: "detclock",
	Run:  runDetclock,
}

func runDetclock(pass *Pass) error {
	if !pass.Deterministic {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			x, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkg := pass.PkgNameOf(x)
			if pkg == nil || pkg.Path() != "time" || !wallClock[sel.Sel.Name] {
				return true
			}
			switch pass.Suppression(sel.Pos(), "wallclock") {
			case Suppressed:
				return true
			case MissingReason:
				pass.Reportf(sel.Pos(), "//detlint:wallclock suppression requires a justification")
			}
			pass.Reportf(sel.Pos(), "time.%s is wall clock; deterministic package %q must take an injected clock (suppress a reviewed seam with //detlint:wallclock <reason>)",
				sel.Sel.Name, pass.ImportPath)
			return true
		})
	}
	return nil
}
