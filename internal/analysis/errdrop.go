package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// durabilityMethods are the WAL entry points whose error is the durability
// contract itself: a dropped error from any of them is a recovery that
// silently lies about what reached disk.
var durabilityMethods = map[string]bool{
	"Append":      true,
	"AppendBatch": true,
	"Sync":        true,
	"Close":       true,
	"Snapshot":    true,
}

// Errdrop is an errcheck-style pass scoped to the durability boundary: a
// call to Append/AppendBatch/Sync/Close/Snapshot on a type declared in
// internal/wal must not discard its error — not in an expression
// statement, not via the blank identifier, and not behind defer/go. It
// applies module-wide (the store seam in pkg/xcbc/api is the hot caller),
// with `//detlint:errdrop <reason>` for the rare path where the error is
// genuinely secondary (e.g. closing a log already being abandoned for a
// prior failure).
var Errdrop = &Analyzer{
	Name: "errdrop",
	Run:  runErrdrop,
}

func runErrdrop(pass *Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ExprStmt:
				if call, ok := s.X.(*ast.CallExpr); ok {
					checkDropped(pass, call, "discarded")
				}
			case *ast.DeferStmt:
				checkDropped(pass, s.Call, "discarded by defer")
			case *ast.GoStmt:
				checkDropped(pass, s.Call, "discarded by go")
			case *ast.AssignStmt:
				for _, rhs := range s.Rhs {
					call, ok := rhs.(*ast.CallExpr)
					if !ok {
						continue
					}
					// Only flag when the error result lands in `_`.
					// Single call spread across the LHS tuple:
					if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
						if id, ok := s.Lhs[len(s.Lhs)-1].(*ast.Ident); ok && id.Name == "_" {
							checkDropped(pass, call, "assigned to _")
						}
					} else if len(s.Lhs) == len(s.Rhs) {
						i := indexOf(s.Rhs, rhs)
						if id, ok := s.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
							checkDropped(pass, call, "assigned to _")
						}
					}
				}
			}
			return true
		})
	}
	return nil
}

func indexOf(exprs []ast.Expr, e ast.Expr) int {
	for i, x := range exprs {
		if x == e {
			return i
		}
	}
	return 0
}

// checkDropped reports call if it is a durability method on a WAL type
// whose (final) error result the caller is throwing away.
func checkDropped(pass *Pass, call *ast.CallExpr, how string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !durabilityMethods[sel.Sel.Name] {
		return
	}
	selection, ok := pass.Info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return
	}
	recv := selection.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return
	}
	pkg := named.Obj().Pkg()
	if pkg == nil || !isWALPath(pkg.Path()) {
		return
	}
	sig, ok := selection.Obj().Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	if !types.Identical(last, types.Universe.Lookup("error").Type()) {
		return
	}
	switch pass.Suppression(call.Pos(), "errdrop") {
	case Suppressed:
		return
	case MissingReason:
		pass.Reportf(call.Pos(), "//detlint:errdrop suppression requires a justification")
	}
	pass.Reportf(call.Pos(), "error from (%s).%s %s; WAL durability errors must be handled or explicitly justified with //detlint:errdrop <reason>",
		named.Obj().Name(), sel.Sel.Name, how)
}

// isWALPath matches the real WAL package and fixture stand-ins.
func isWALPath(path string) bool {
	return path == "internal/wal" || strings.HasSuffix(path, "/internal/wal")
}
