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
// function, method, type or value declared under internal/ is reached if
// some non-test file of the module refers to it outside its own
// declaration, or if it is a method an interface needs. What is not
// reached is deleted, or says why it stays on the line above it:
//
//	//detlint:reached <kind>: <what reaches it>
//
// (above the package clause, for a package that only tests import). It is
// a test and not a sixth Analyzer because a vet unit sees one package and
// the question needs every caller in the module.

// reachedKinds are the accepted reasons for keeping what only tests reach.
var reachedKinds = []string{
	"benchmark", // a benchmark pinned in BENCH_baseline.json, or one in the root bench_test.go, calls it
	"reference", // a test compares live code against it
	"support",   // it is test support for a test of live code
}

// decl is one exported package-level declaration or method under internal/.
type decl struct {
	pkg      *Package
	key      string    // see objKey
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
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
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

// lineKey addresses one line of one file.
type lineKey struct {
	file string
	line int
}

// unreached applies the rule to the packages under internal/ among pkgs
// (one whole module, non-test files only, as Load returns it) and returns
// its findings in file and line order.
func unreached(fset *token.FileSet, pkgs []*Package) []Diagnostic {
	var decls []decl
	declared := make(map[string]decl)
	imported := make(map[string]bool)
	reasons := make(map[lineKey]string) // where a //detlint:reached comment sits → its reason

	// Every interface the module can name: those its own files declare or
	// write as literals, and the named ones of every package in its import
	// graph (error, fmt.Stringer, heap.Interface, http.Flusher, ...).
	ifaces := []map[string]string{methodSigs(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))}
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
		if !strings.Contains(pkg.ImportPath, "/internal/") {
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
		if !strings.Contains(pkg.ImportPath, "/internal/") {
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
