package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The reachability rule (DESIGN.md, "Static analysis"): an exported
// function, method, type or value declared under internal/ or pkg/ is
// reached if some non-test file of the module refers to it outside its own
// declaration, or if it is a method an interface needs. A struct field
// declared there, exported or not, is reached if some non-test file reads
// it (see fieldUses). What is not reached is deleted, or says why it stays
// on the line above it:
//
//	//detlint:reached <kind>: <what reaches it>
//
// (above the package clause, for a package that only tests import). It is
// a test and not a seventh Analyzer because a vet unit sees one package and
// the question needs every caller in the module.

// reachedKinds are the accepted reasons for keeping what only tests reach.
var reachedKinds = []string{
	"benchmark", // a benchmark pinned in BENCH_baseline.json, or one in the root bench_test.go, calls it
	"reference", // a test compares live code against it
	"support",   // it is test support for a test of live code
}

// knownIfaces are interfaces the standard library asserts inside function
// bodies, where neither a declaration nor a literal the rule can see names
// them. Signatures are written as sigString renders them.
var knownIfaces = []map[string]string{
	{"Unwrap": "()(error,)"},                   // errors.Is, errors.As, errors.Unwrap
	{"Unwrap": "()([]error,)"},                 // errors.Is, errors.As on a joined error
	{"Is": "(error,)(bool,)"},                  // errors.Is
	{"As": "(any,)(bool,)"},                    // errors.As
	{"Unwrap": "()(net/http.ResponseWriter,)"}, // http.ResponseController
}

// reflective are the packages that read the fields of a value passed to
// them: every field (true), or the exported ones only (false), as
// encoding/json and encoding/xml do.
var reflective = map[string]bool{
	"fmt": true, "encoding/json": false, "encoding/xml": false,
	"reflect": true, "log": true, "text/template": true,
}

// inScope reports whether the rule holds a package's declarations to it.
func inScope(importPath string) bool {
	return strings.Contains(importPath, "/internal/") || strings.Contains(importPath, "/pkg/")
}

// decl is one exported package-level declaration or method, or one struct
// field, in scope.
type decl struct {
	pkg      *Package
	key      string    // see objKey and fieldKey
	pos, end token.Pos // the declaration without its doc comment
	lines    int       // with it
}

// objKey names a package-level object or method the same way whether it
// was type-checked from source or read from export data: each package is
// checked against export data, so a use in one package and the
// declaration in another are different objects with the same key. Fields,
// parameters and locals have no key.
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if n := namedOf(recv.Type()); n != nil {
				return obj.Pkg().Path() + "." + n.Obj().Name() + "." + obj.Name()
			}
			return ""
		}
	}
	if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// fieldKey names a field of the struct underlying owner the way objKey
// names a method: package path, owning type, field name.
func fieldKey(owner *types.Named, field string) string {
	return owner.Obj().Pkg().Path() + "." + owner.Obj().Name() + "." + field
}

// namedOf is t, or what t points to, as a defined type; nil otherwise.
func namedOf(t types.Type) *types.Named {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

// structOf is namedOf(t) when a struct underlies it.
func structOf(t types.Type) *types.Named {
	if n := namedOf(t); n != nil {
		if _, ok := n.Underlying().(*types.Struct); ok {
			return n
		}
	}
	return nil
}

// methodSigs renders an interface as method name → signature with full
// package paths, so satisfaction is decided by text and survives the
// source/export-data divide. Empty and constraint interfaces yield nil.
func methodSigs(it *types.Interface) map[string]string {
	if it.NumMethods() == 0 || !it.IsMethodSet() {
		return nil
	}
	m := make(map[string]string, it.NumMethods())
	for i := 0; i < it.NumMethods(); i++ {
		m[it.Method(i).Name()] = sigString(it.Method(i))
	}
	return m
}

// sigString is a method's signature without its parameter names.
func sigString(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), func(p *types.Package) string { return p.Path() }))
			b.WriteByte(',')
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

// fieldUses walks one package's non-test files and records, by fieldKey,
// every read of a field and how many times each is written. A read is one
// of four things:
//
//   - a selector x.f, unless it is only stored to: the left of an
//     assignment, x.f[k] = v, x.f++, or the x.f inside x.f = append(x.f, …);
//   - a tag on the field;
//   - a conversion between the field's struct type and another struct type;
//   - a value of the struct's type, or of a type built from it, passed to a
//     function or method of a reflective package (fmt, encoding/json, ...);
//     encoding/json and encoding/xml read only its exported fields, and
//     what they hold or embed.
func fieldUses(pkg *Package, reads map[string]bool, writes map[string]int) {
	info := pkg.Info
	readAll := func(n *types.Named) {
		st := n.Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			reads[fieldKey(n, st.Field(i).Name())] = true
		}
	}
	// walker returns a walk that reads the fields of a type, and of the
	// types inside them: all of them, or the exported and embedded ones.
	walker := func(all bool) func(types.Type) {
		walked := func(f *types.Var) bool { return all || f.Exported() || f.Embedded() }
		seen := make(map[*types.Named]bool)
		var deep func(t types.Type)
		deep = func(t types.Type) {
			switch t := types.Unalias(t).(type) {
			case *types.Named:
				if seen[t] {
					return
				}
				seen[t] = true
				if st, ok := t.Underlying().(*types.Struct); ok {
					for i := 0; i < st.NumFields(); i++ {
						if walked(st.Field(i)) {
							reads[fieldKey(t, st.Field(i).Name())] = true
						}
					}
				}
				deep(t.Underlying())
			case *types.Struct:
				for i := 0; i < t.NumFields(); i++ {
					if walked(t.Field(i)) {
						deep(t.Field(i).Type())
					}
				}
			case *types.Pointer:
				deep(t.Elem())
			case *types.Slice:
				deep(t.Elem())
			case *types.Array:
				deep(t.Elem())
			case *types.Map:
				deep(t.Key())
				deep(t.Elem())
			}
		}
		return deep
	}
	deep := map[bool]func(types.Type){true: walker(true), false: walker(false)}
	stored := make(map[*ast.SelectorExpr]bool)
	store := func(e ast.Expr) {
		e = ast.Unparen(e)
		if ix, ok := e.(*ast.IndexExpr); ok {
			e = ast.Unparen(ix.X)
		}
		if sel, ok := e.(*ast.SelectorExpr); ok {
			stored[sel] = true
		}
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					store(lhs)
					if len(n.Rhs) != len(n.Lhs) {
						continue
					}
					// x.f = append(x.f, ...) reads x.f only to store it back.
					if call, ok := ast.Unparen(n.Rhs[i]).(*ast.CallExpr); ok && len(call.Args) > 0 {
						if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && types.ExprString(call.Args[0]) == types.ExprString(lhs) {
							if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
								store(call.Args[0])
							}
						}
					}
				}
			case *ast.IncDecStmt:
				store(n.X)
			case *ast.SelectorExpr:
				sel := info.Selections[n]
				if sel == nil || sel.Kind() != types.FieldVal {
					break
				}
				// Walk the embedding path to the struct that declares the field.
				t, path := sel.Recv(), sel.Index()
				for _, i := range path[:len(path)-1] {
					if p, ok := t.Underlying().(*types.Pointer); ok {
						t = p.Elem()
					}
					t = t.Underlying().(*types.Struct).Field(i).Type()
				}
				if owner := structOf(t); owner != nil {
					key := fieldKey(owner, sel.Obj().Name())
					if stored[n] {
						writes[key]++
					} else {
						reads[key] = true
					}
				}
			case *ast.CompositeLit:
				owner := structOf(info.TypeOf(n))
				if owner == nil {
					break
				}
				for i, elt := range n.Elts {
					name := owner.Underlying().(*types.Struct).Field(i).Name() // positional
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						name = kv.Key.(*ast.Ident).Name
					}
					writes[fieldKey(owner, name)]++
				}
			case *ast.CallExpr:
				if tv := info.Types[n.Fun]; tv.IsType() && len(n.Args) == 1 {
					to, from := structOf(tv.Type), structOf(info.TypeOf(n.Args[0]))
					if to != nil && from != nil {
						readAll(to)
						readAll(from)
					}
					break
				}
				var callee types.Object
				switch fun := ast.Unparen(n.Fun).(type) {
				case *ast.Ident:
					callee = info.Uses[fun]
				case *ast.SelectorExpr:
					callee = info.Uses[fun.Sel]
				}
				if fn, ok := callee.(*types.Func); ok && fn.Pkg() != nil {
					if all, ok := reflective[fn.Pkg().Path()]; ok {
						for _, arg := range n.Args {
							deep[all](info.TypeOf(arg))
						}
					}
				}
			}
			return true
		})
	}
}

// lineKey addresses one line of one file.
type lineKey struct {
	file string
	line int
}

// unreached applies the rule to the packages under internal/ and pkg/
// among pkgs (one whole module, non-test files only, as Load returns it)
// and returns its findings in file and line order.
func unreached(fset *token.FileSet, pkgs []*Package) []Diagnostic {
	var decls, fields []decl
	declared := make(map[string]decl)
	imported := make(map[string]bool)
	reasons := make(map[lineKey]string) // where a //detlint:reached comment sits → its reason
	reads := make(map[string]bool)
	writes := make(map[string]int)

	// Every interface the module can name: those its own files declare or
	// write as literals, the named ones of every package in its import
	// graph (error, fmt.Stringer, heap.Interface, http.Flusher, ...), and
	// knownIfaces.
	ifaces := append([]map[string]string{methodSigs(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))}, knownIfaces...)
	var concrete []*types.Named
	seen := make(map[*types.Package]bool)
	var visit func(p *types.Package, source bool)
	visit = func(p *types.Package, source bool) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if it, ok := named.Underlying().(*types.Interface); ok {
				if m := methodSigs(it); m != nil {
					ifaces = append(ifaces, m)
				}
			} else if source {
				concrete = append(concrete, named)
			}
		}
		for _, imp := range p.Imports() {
			visit(imp, false)
		}
	}

	for _, pkg := range pkgs {
		visit(pkg.Types, true)
		for _, imp := range pkg.Types.Imports() {
			imported[imp.Path()] = true
		}
		for _, tv := range pkg.Info.Types {
			if it, ok := tv.Type.(*types.Interface); ok {
				if m := methodSigs(it); m != nil {
					ifaces = append(ifaces, m)
				}
			}
		}
		fieldUses(pkg, reads, writes)
		if !inScope(pkg.ImportPath) {
			continue
		}
		add := func(name *ast.Ident, doc *ast.CommentGroup, n ast.Node) {
			key := objKey(pkg.Info.Defs[name])
			if key == "" || !name.IsExported() {
				return
			}
			first := n.Pos()
			if doc != nil {
				first = doc.Pos()
			}
			decls = append(decls, decl{pkg, key, n.Pos(), n.End(),
				fset.Position(n.End()).Line - fset.Position(first).Line + 1})
		}
		// addFields adds the named fields of a package-level struct type;
		// a tagged one is read by whatever reads the tag.
		addFields := func(spec *ast.TypeSpec) {
			st, ok := spec.Type.(*ast.StructType)
			if !ok || spec.Assign.IsValid() {
				return
			}
			owner := pkg.Info.Defs[spec.Name].Type().(*types.Named)
			for _, field := range st.Fields.List {
				for _, name := range field.Names { // an embedded field has none: its fields are its type's
					if name.Name == "_" {
						continue
					}
					key := fieldKey(owner, name.Name)
					if field.Tag != nil {
						reads[key] = true
					}
					fields = append(fields, decl{pkg, key, name.Pos(), name.End(), 1})
				}
			}
		}
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if directive, reason, ok := ParseDirective(c.Text); ok && directive == "reached" {
						at := fset.Position(c.Pos())
						reasons[lineKey{at.Filename, at.Line}] = reason
					}
				}
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					add(d.Name, d.Doc, d)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						doc := d.Doc
						if d.Lparen.IsValid() {
							doc = nil
						}
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							if spec.Doc != nil {
								doc = spec.Doc
							}
							add(spec.Name, doc, spec)
							addFields(spec)
						case *ast.ValueSpec:
							if spec.Doc != nil {
								doc = spec.Doc
							}
							for _, name := range spec.Names {
								add(name, doc, spec)
							}
						}
					}
				}
			}
		}
	}
	for _, d := range decls {
		declared[d.key] = d
	}

	// A use counts unless it sits inside the declaration it names (a
	// recursive call, a type naming itself) or in a method's receiver (a
	// type that only its own methods mention is not reached).
	refs := make(map[string]bool)
	for _, pkg := range pkgs {
		use := func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				key := objKey(pkg.Info.Uses[id])
				if d, ok := declared[key]; ok && !(d.pos <= id.Pos() && id.Pos() < d.end) {
					refs[key] = true
				}
			}
			return true
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					ast.Inspect(fd.Type, use)
					if fd.Body != nil {
						ast.Inspect(fd.Body, use)
					}
				} else {
					ast.Inspect(d, use)
				}
			}
		}
	}

	// A method some interface needs: for every concrete type the module
	// declares and every interface it satisfies, the methods that satisfy
	// it. Going through the method set credits a promoted method to the
	// embedded type that declares it.
	for _, named := range concrete {
		ms := types.NewMethodSet(types.NewPointer(named))
		have := make(map[string]*types.Func, ms.Len())
		for i := 0; i < ms.Len(); i++ {
			fn := ms.At(i).Obj().(*types.Func)
			have[fn.Name()] = fn
		}
	nextIface:
		for _, want := range ifaces {
			for name, sig := range want {
				if fn := have[name]; fn == nil || sigString(fn) != sig {
					continue nextIface
				}
			}
			for name := range want {
				refs[objKey(have[name])] = true
			}
		}
	}

	var out []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
	}
	// justified reads the directive on pos's line or the line above it; one
	// with no reason, or with a reason that is not "<kind>: <what>", is
	// itself a finding.
	justified := func(pos token.Pos) bool {
		at := fset.Position(pos)
		reason, ok := reasons[lineKey{at.Filename, at.Line}]
		if !ok {
			if reason, ok = reasons[lineKey{at.Filename, at.Line - 1}]; !ok {
				return false
			}
		}
		kind, what, _ := strings.Cut(reason, ":")
		for _, k := range reachedKinds {
			if kind == k && strings.TrimSpace(what) != "" {
				return true
			}
		}
		report(pos, "//detlint:reached %q: the reason must be one of %s, a colon, and what reaches it", reason, strings.Join(reachedKinds, ", "))
		return false
	}

	whole := make(map[*Package]bool) // importer-less packages a directive keeps
	for _, pkg := range pkgs {
		if !inScope(pkg.ImportPath) {
			continue
		}
		clause, marked := pkg.Files[0].Package, false
		for _, f := range pkg.Files {
			if justified(f.Package) {
				clause, marked = f.Package, true
			}
		}
		switch {
		case marked && imported[pkg.ImportPath]:
			report(clause, "package %s is marked //detlint:reached but a non-test file imports it", pkg.ImportPath)
		case marked:
			whole[pkg] = true
		case !imported[pkg.ImportPath]:
			report(clause, "package %s has no non-test importer", pkg.ImportPath)
		}
	}
	for _, d := range decls {
		if whole[d.pkg] {
			continue
		}
		name := strings.TrimPrefix(d.key, d.pkg.ImportPath+".")
		switch marked := justified(d.pos); {
		case marked && refs[d.key]:
			report(d.pos, "%s is marked //detlint:reached but a non-test file reaches it", name)
		case !marked && !refs[d.key]:
			report(d.pos, "%s is reached by no non-test file (%d lines)", name, d.lines)
		}
	}
	for _, d := range fields {
		if whole[d.pkg] {
			continue
		}
		name := strings.TrimPrefix(d.key, d.pkg.ImportPath+".")
		switch marked := justified(d.pos); {
		case marked && reads[d.key]:
			report(d.pos, "field %s is marked //detlint:reached but a non-test file reads it", name)
		case !marked && !reads[d.key]:
			report(d.pos, "field %s is read by no non-test file (%d writes)", name, writes[d.key])
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		pi, pj := fset.Position(out[i].Pos), fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Line < pj.Line
	})
	return out
}

// TestNoUnreachedExports holds the whole module to the rule. Run it with
// -v for the per-package count.
func TestNoUnreachedExports(t *testing.T) {
	fset, pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		if len(p.TypeErrors) > 0 {
			t.Fatalf("%s: %v", p.ImportPath, p.TypeErrors)
		}
	}
	findings := unreached(fset, pkgs)
	perDir := make(map[string]int)
	for _, d := range findings {
		pos := fset.Position(d.Pos)
		t.Errorf("%s: %s", pos, d.Message)
		perDir[filepath.Base(filepath.Dir(pos.Filename))]++
	}
	t.Logf("%d packages, %d findings %v", len(pkgs), len(findings), perDir)
}

// TestUnreachedFixture holds the rule itself to testdata/src/unreached,
// which has one declaration per clause of it.
func TestUnreachedFixture(t *testing.T) {
	fset, pkgs, err := Load("testdata/src/unreached", "./...")
	if err != nil {
		t.Fatal(err)
	}
	var wants []*want
	for _, p := range pkgs {
		if len(p.TypeErrors) > 0 {
			t.Fatalf("%s: %v", p.ImportPath, p.TypeErrors)
		}
		wants = append(wants, collectWants(t, fset, p)...)
	}
	matchWants(t, fset, wants, unreached(fset, pkgs))
}
