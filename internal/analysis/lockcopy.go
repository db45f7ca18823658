package analysis

import (
	"go/ast"
	"go/types"
)

// Lockcopy guards the two lock bugs the per-member-mutex and
// serializing-adapter patterns (internal/fleet, core.Operations) make
// easy to write:
//
//   - a method with a value receiver on a type that contains a sync.Mutex
//     or sync.RWMutex — every call locks a copy, which "works" until two
//     goroutines interleave;
//   - an early return between mu.Lock() and its Unlock with no defer —
//     the next caller deadlocks, but only on the branch tests rarely take.
//
// The pass is intraprocedural and linear: after a Lock with no deferred
// Unlock in the statements that follow, the first return reached before
// an Unlock on the same receiver is reported. Functions that hand out
// locked state on purpose can justify it with //detlint:lockcopy <reason>.
var Lockcopy = &Analyzer{
	Name: "lockcopy",
	Run:  runLockcopy,
}

func runLockcopy(pass *Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			checkValueReceiver(pass, fn)
			if fn.Body != nil {
				checkLockReturns(pass, fn.Body)
			}
		}
		// Function literals get the early-return check too.
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				checkLockReturns(pass, lit.Body)
			}
			return true
		})
	}
	return nil
}

// checkValueReceiver flags methods whose non-pointer receiver type holds a
// lock.
func checkValueReceiver(pass *Pass, fn *ast.FuncDecl) {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return
	}
	field := fn.Recv.List[0]
	tv, ok := pass.Info.Types[field.Type]
	if !ok || tv.Type == nil {
		return
	}
	if _, isPtr := tv.Type.(*types.Pointer); isPtr {
		return
	}
	if !containsLock(tv.Type, nil) {
		return
	}
	switch pass.Suppression(field.Pos(), "lockcopy") {
	case Suppressed:
		return
	case MissingReason:
		pass.Reportf(field.Pos(), "//detlint:lockcopy suppression requires a justification")
	}
	pass.Reportf(field.Pos(), "method %s has a value receiver but %s contains a mutex; each call locks a copy — use a pointer receiver (or justify with //detlint:lockcopy <reason>)",
		fn.Name.Name, types.TypeString(tv.Type, types.RelativeTo(pass.Pkg)))
}

// containsLock reports whether t (traversing structs, arrays, and
// embedding, but not indirections) holds a sync.Mutex or sync.RWMutex.
func containsLock(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	if seen == nil {
		seen = make(map[types.Type]bool)
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
			(obj.Name() == "Mutex" || obj.Name() == "RWMutex") {
			return true
		}
		return containsLock(named.Underlying(), seen)
	}
	switch u := t.(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsLock(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsLock(u.Elem(), seen)
	}
	return false
}

// checkLockReturns runs the linear early-return scan over every statement
// list in body.
func checkLockReturns(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != ast.Node(body) {
			return false // literals are scanned as their own functions
		}
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		for i, stmt := range block.List {
			recv, unlockName := lockCall(pass, stmt)
			if recv == "" {
				continue
			}
			scanAfterLock(pass, block.List[i+1:], stmt, recv, unlockName)
		}
		return true
	})
}

// lockCall reports the receiver expression text and matching unlock name
// if stmt is `x.Lock()` or `x.RLock()` resolving to package sync.
func lockCall(pass *Pass, stmt ast.Stmt) (recv, unlockName string) {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return "", ""
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return "", ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	var want string
	switch sel.Sel.Name {
	case "Lock":
		want = "Unlock"
	case "RLock":
		want = "RUnlock"
	default:
		return "", ""
	}
	if !isSyncMethod(pass, sel) {
		return "", ""
	}
	return types.ExprString(sel.X), want
}

// isSyncMethod reports whether the selector resolves to a method declared
// in package sync (covers fields, embedding, and promoted methods).
func isSyncMethod(pass *Pass, sel *ast.SelectorExpr) bool {
	selection, ok := pass.Info.Selections[sel]
	if !ok {
		return false
	}
	obj := selection.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

// scanAfterLock walks the statements after a Lock in source order. A
// deferred matching Unlock (directly or inside a deferred closure)
// protects every path; a plain Unlock ends the critical section for the
// straight-line path; a return seen before either is reported once.
func scanAfterLock(pass *Pass, rest []ast.Stmt, lockStmt ast.Stmt, recv, unlockName string) {
	done := false
	for _, stmt := range rest {
		if done {
			return
		}
		ast.Inspect(stmt, func(n ast.Node) bool {
			if done {
				return false
			}
			switch s := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.DeferStmt:
				if deferUnlocks(pass, s, recv, unlockName) {
					done = true
					return false
				}
				return false // other defers run at exit, not inline
			case *ast.ExprStmt:
				if call, ok := s.X.(*ast.CallExpr); ok {
					if isUnlock(pass, call, recv, unlockName) {
						done = true
						return false
					}
				}
			case *ast.ReturnStmt:
				done = true
				switch pass.Suppression(s.Pos(), "lockcopy") {
				case Suppressed:
					return false
				case MissingReason:
					pass.Reportf(s.Pos(), "//detlint:lockcopy suppression requires a justification")
				}
				pass.Reportf(s.Pos(), "return while %s is still locked (Lock at line %d has no defer %s.%s); add the defer or justify with //detlint:lockcopy <reason>",
					recv, pass.Fset.Position(lockStmt.Pos()).Line, recv, unlockName)
				return false
			}
			return true
		})
	}
}

// deferUnlocks reports whether the defer releases recv: either
// `defer recv.Unlock()` or a deferred closure whose body unlocks recv.
func deferUnlocks(pass *Pass, d *ast.DeferStmt, recv, unlockName string) bool {
	if isUnlock(pass, d.Call, recv, unlockName) {
		return true
	}
	lit, ok := d.Call.Fun.(*ast.FuncLit)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isUnlock(pass, call, recv, unlockName) {
			found = true
			return false
		}
		return !found
	})
	return found
}

// isUnlock reports whether call is `recv.<unlockName>()`.
func isUnlock(pass *Pass, call *ast.CallExpr, recv, unlockName string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != unlockName {
		return false
	}
	return isSyncMethod(pass, sel) && types.ExprString(sel.X) == recv
}
