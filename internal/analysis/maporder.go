package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Maporder rejects `for … range` over a map in order-sensitive packages
// unless the iteration is provably order-free or explicitly justified.
// Go randomizes map iteration per run, so a map range in a function that
// emits trace events, frames WAL records, or builds an API list response
// is a nondeterminism bug that only surfaces as a golden-trace diff.
//
// Two idioms pass without annotation:
//
//   - sorted keys: collect into a slice and sort before consuming —
//     detected as any sort.*/slices.Sort* call later in the same function
//     (the canonical form is `for _, k := range slices.Sorted(maps.Keys(m))`,
//     which never ranges the map at all and is always clean);
//   - order-free bodies: every statement only deletes map entries or
//     writes through a map index (set/counter aggregation), so the result
//     cannot depend on visit order.
//
// Anything else needs `//detlint:ordered <reason>` on the range line.
var Maporder = &Analyzer{
	Name: "maporder",
	Run:  runMaporder,
}

// isSortName matches the functions accepted as "the collected results get
// sorted" evidence when called after the loop: the sort and slices
// packages, plus local helpers following the naming convention
// (SortPackages, sortByNum, …). Name-based matching is deliberately
// coarse — a sort of something unrelated also passes — but the false
// negatives it risks are exactly the reviews //detlint:ordered exists for.
func isSortName(name string) bool {
	return strings.Contains(strings.ToLower(name), "sort")
}

func runMaporder(pass *Pass) error {
	if !pass.OrderSensitive {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		var bodies []*ast.BlockStmt
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					bodies = append(bodies, fn.Body)
				}
			case *ast.FuncLit:
				bodies = append(bodies, fn.Body)
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.Info.Types[rng.X]
			if !ok || tv.Type == nil {
				return true
			}
			if _, ok := tv.Type.Underlying().(*types.Map); !ok {
				return true
			}
			if orderFreeBody(pass, rng.Body) {
				return true
			}
			if body := innermostBody(bodies, rng.Pos()); body != nil && sortedLater(pass, body, rng.End()) {
				return true
			}
			switch pass.Suppression(rng.Pos(), "ordered") {
			case Suppressed:
				return true
			case MissingReason:
				pass.Reportf(rng.Pos(), "//detlint:ordered suppression requires a justification")
			}
			pass.Reportf(rng.Pos(), "map iteration order is random; order-sensitive package %q must range over sorted keys (slices.Sorted(maps.Keys(m))) or justify with //detlint:ordered <reason>",
				pass.ImportPath)
			return true
		})
	}
	return nil
}

// innermostBody returns the smallest function body containing pos.
func innermostBody(bodies []*ast.BlockStmt, pos token.Pos) *ast.BlockStmt {
	var best *ast.BlockStmt
	for _, b := range bodies {
		if b.Pos() <= pos && pos < b.End() {
			if best == nil || b.Pos() > best.Pos() {
				best = b
			}
		}
	}
	return best
}

// sortedLater reports whether a recognized sort call appears after `after`
// within body — evidence that whatever the loop collected gets a stable
// order before anyone consumes it.
func sortedLater(pass *Pass, body *ast.BlockStmt, after token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= after {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			if x, ok := fun.X.(*ast.Ident); ok {
				if pkg := pass.PkgNameOf(x); pkg != nil {
					if path := pkg.Path(); path == "sort" || path == "slices" {
						found = true
						return false
					}
				}
			}
			if isSortName(fun.Sel.Name) {
				found = true
				return false
			}
		case *ast.Ident:
			if isSortName(fun.Name) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// orderFreeBody reports whether every statement in the loop body is one
// whose cumulative effect cannot depend on iteration order:
//
//   - deleting map entries;
//   - assigning (or compound-assigning) through a map index — a map range
//     visits each key exactly once, so such writes never collide;
//   - accumulating into an integer with a commutative operator
//     (n += …, flags |= …) — floats stay flagged, float addition is not
//     associative;
//   - if-guards (call-free conditions) and continue around the above.
//
// Plain-variable assignments, appends to slices, channel sends, and
// arbitrary calls all disqualify — "first key wins" and "output order"
// bugs live there.
func orderFreeBody(pass *Pass, body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	for _, stmt := range body.List {
		if !orderFreeStmt(pass, stmt) {
			return false
		}
	}
	return true
}

// commutativeOps are the compound-assignment operators whose integer
// folds are order-independent.
var commutativeOps = map[token.Token]bool{
	token.ADD_ASSIGN: true,
	token.MUL_ASSIGN: true,
	token.AND_ASSIGN: true,
	token.OR_ASSIGN:  true,
	token.XOR_ASSIGN: true,
}

func orderFreeStmt(pass *Pass, stmt ast.Stmt) bool {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "delete"
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			if containsNonBuiltinCall(pass, rhs) {
				return false
			}
		}
		for _, lhs := range s.Lhs {
			if !orderFreeTarget(pass, lhs, s.Tok) {
				return false
			}
		}
		return true
	case *ast.IncDecStmt:
		return orderFreeTarget(pass, s.X, token.ADD_ASSIGN)
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE
	case *ast.IfStmt:
		if s.Init != nil || containsNonBuiltinCall(pass, s.Cond) {
			return false
		}
		if !orderFreeBody(pass, s.Body) {
			return false
		}
		switch e := s.Else.(type) {
		case nil:
			return true
		case *ast.BlockStmt:
			return orderFreeBody(pass, e)
		case *ast.IfStmt:
			return orderFreeStmt(pass, e)
		}
		return false
	default:
		return false
	}
}

// orderFreeTarget reports whether assigning to lhs with operator tok is
// order-free: any write through a map index (keys are unique per range
// iteration), or a commutative integer accumulation into a variable.
func orderFreeTarget(pass *Pass, lhs ast.Expr, tok token.Token) bool {
	if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
		return true
	}
	if idx, ok := lhs.(*ast.IndexExpr); ok {
		tv, ok := pass.Info.Types[idx.X]
		if !ok || tv.Type == nil {
			return false
		}
		_, isMap := tv.Type.Underlying().(*types.Map)
		return isMap
	}
	if !commutativeOps[tok] {
		return false
	}
	tv, ok := pass.Info.Types[lhs]
	if !ok || tv.Type == nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsInteger != 0
}

// containsNonBuiltinCall reports whether expr contains a call other than
// a type conversion or one of the value-producing builtins (len, cap,
// make, append, min, max) — the calls whose results depend only on their
// operands.
func containsNonBuiltinCall(pass *Pass, expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
			return true // conversion; arguments may still contain calls
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
				switch id.Name {
				case "len", "cap", "make", "append", "min", "max":
					return true // arguments may still contain calls; keep walking
				}
			}
		}
		found = true
		return false
	})
	return found
}
