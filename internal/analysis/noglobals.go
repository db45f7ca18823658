package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// onceBuilders are the sync functions whose result is a lazily filled,
// process-wide value when assigned to a package-level var.
var onceBuilders = map[string]bool{
	"OnceValue":  true,
	"OnceValues": true,
	"OnceFunc":   true,
}

// Noglobals rejects hidden process-global state in deterministic packages:
// a package-level var whose type is or holds (through structs and arrays,
// not pointers) a sync or sync/atomic type, or whose initialiser calls
// sync.OnceValue, OnceValues or OnceFunc. Such a var is shared by every
// tenant, fleet member and test in the process and never reset, so what
// one caller leaves there another reads. State is passed explicitly
// instead; a reviewed exception — a bounded table, a pool of scratch
// buffers, a one-time build of static data — is `//detlint:global
// <reason>`.
var Noglobals = &Analyzer{
	Name: "noglobals",
	Run:  runNoglobals,
}

func runNoglobals(pass *Pass) error {
	if !pass.Deterministic {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				once := callsOnceBuilder(pass, vs.Values)
				for _, name := range vs.Names {
					obj := pass.Info.Defs[name]
					if obj == nil || name.Name == "_" {
						continue
					}
					what := once
					if t := syncTypeIn(obj.Type(), nil); t != "" {
						what = t
					}
					if what == "" {
						continue
					}
					switch pass.Suppression(name.Pos(), "global") {
					case Suppressed:
						continue
					case MissingReason:
						pass.Reportf(name.Pos(), "//detlint:global suppression requires a justification")
					}
					pass.Reportf(name.Pos(), "package-level var %s holds %s: process-global state in deterministic package %q is shared by every caller and never reset; pass it explicitly (or justify with //detlint:global <reason>)",
						name.Name, what, pass.ImportPath)
				}
			}
		}
	}
	return nil
}

// syncTypeIn names the first sync or sync/atomic type t is or holds,
// traversing structs and arrays but not indirections; "" if none.
func syncTypeIn(t types.Type, seen map[types.Type]bool) string {
	if seen[t] {
		return ""
	}
	if seen == nil {
		seen = make(map[types.Type]bool)
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		if pkg := named.Obj().Pkg(); pkg != nil && (pkg.Path() == "sync" || pkg.Path() == "sync/atomic") {
			return pkg.Name() + "." + named.Obj().Name()
		}
		return syncTypeIn(named.Underlying(), seen)
	}
	switch u := t.(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if s := syncTypeIn(u.Field(i).Type(), seen); s != "" {
				return s
			}
		}
	case *types.Array:
		return syncTypeIn(u.Elem(), seen)
	}
	return ""
}

// callsOnceBuilder names the sync.OnceValue/OnceValues/OnceFunc call among
// an initialiser's expressions; "" if none.
func callsOnceBuilder(pass *Pass, values []ast.Expr) string {
	found := ""
	for _, v := range values {
		ast.Inspect(v, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found != "" {
				return found == ""
			}
			fun := call.Fun
			switch x := fun.(type) { // explicit instantiation: sync.OnceValue[T](…)
			case *ast.IndexExpr:
				fun = x.X
			case *ast.IndexListExpr:
				fun = x.X
			}
			sel, ok := fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
			if ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync" && onceBuilders[fn.Name()] {
				found = "the result of sync." + fn.Name()
			}
			return true
		})
	}
	return found
}
