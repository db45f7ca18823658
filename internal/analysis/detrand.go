package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
)

// randConstructors are the math/rand/v2 package-level names that build an
// explicitly seeded generator rather than consulting the process-global
// source. This is the only sanctioned idiom in deterministic packages:
//
//	rng := rand.New(rand.NewPCG(seed, stream))
//
// NewChaCha8 is likewise explicit (a [32]byte seed), and NewZipf wraps an
// already-constructed *Rand.
var randConstructors = map[string]bool{
	"New":        true,
	"NewPCG":     true,
	"NewChaCha8": true,
	"NewZipf":    true,
}

// Detrand rejects ambient randomness in deterministic packages. The
// process-global source (top-level rand.IntN, rand.Shuffle, …) is seeded
// from the OS in math/rand/v2 and from rand.Seed side effects in v1 —
// either way the stream is not a function of the scenario seed, so replay
// oracles and golden traces diverge. math/rand (v1) is rejected outright,
// even seeded: its streams are coupled to deprecated global state and the
// repo standard is the v2 PCG idiom with named seed and stream arguments.
// A reviewed exception is `//detlint:rand <reason>`.
var Detrand = &Analyzer{
	Name: "detrand",
	Run:  runDetrand,
}

func runDetrand(pass *Pass) error {
	if !pass.Deterministic {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || path != "math/rand" {
				continue
			}
			switch pass.Suppression(imp.Pos(), "rand") {
			case Suppressed:
				continue
			case MissingReason:
				pass.Reportf(imp.Pos(), "//detlint:rand suppression requires a justification")
			}
			pass.Reportf(imp.Pos(), "deterministic package %q imports math/rand (v1); use math/rand/v2 with rand.New(rand.NewPCG(seed, stream)) (suppress with //detlint:rand <reason>)",
				pass.ImportPath)
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
			if pkg == nil || pkg.Path() != "math/rand/v2" {
				return true
			}
			// Only package-level functions touch the global source;
			// types (rand.Rand, rand.PCG) and the constructors are fine.
			if _, ok := pass.Info.Uses[sel.Sel].(*types.Func); !ok {
				return true
			}
			if randConstructors[sel.Sel.Name] {
				return true
			}
			switch pass.Suppression(sel.Pos(), "rand") {
			case Suppressed:
				return true
			case MissingReason:
				pass.Reportf(sel.Pos(), "//detlint:rand suppression requires a justification")
			}
			pass.Reportf(sel.Pos(), "rand.%s draws from the process-global source; deterministic package %q must use rand.New(rand.NewPCG(seed, stream)) (suppress with //detlint:rand <reason>)",
				sel.Sel.Name, pass.ImportPath)
			return true
		})
	}
	return nil
}
