package analysis

import (
	"flag"
	"fmt"
	"go/types"
	"os"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite pkg/xcbc/api.txt from the current SDK")

// surfaceFile pins the exported surface of the public SDK, one line per
// exported name in the style of Go's api/go1.*.txt, so that any change to
// it shows up as a diff in review.
const surfaceFile = "../../pkg/xcbc/api.txt"

// surface renders every exported name of pkgs with its type, sorted.
func surface(pkgs []*Package) []string {
	var lines []string
	for _, pkg := range pkgs {
		qual := func(p *types.Package) string {
			if p == pkg.Types {
				return ""
			}
			return p.Name()
		}
		typ := func(t types.Type) string { return types.TypeString(t, qual) }
		add := func(format string, args ...any) {
			lines = append(lines, "pkg "+pkg.ImportPath+", "+fmt.Sprintf(format, args...))
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Const:
				if !obj.Exported() {
					continue
				}
				val := obj.Val().ExactString()
				if basic, ok := obj.Type().(*types.Basic); ok && basic.Info()&types.IsUntyped != 0 {
					add("const %s = %s", name, val)
				} else {
					add("const %s %s = %s", name, typ(obj.Type()), val)
				}
			case *types.Var:
				if obj.Exported() {
					add("var %s %s", name, typ(obj.Type()))
				}
			case *types.Func:
				if obj.Exported() {
					add("func %s%s", name, signature(obj.Type().(*types.Signature), typ))
				}
			case *types.TypeName:
				if !obj.Exported() {
					continue
				}
				// An alias prints its target, then the target's fields and
				// methods under the alias's name, so a change to an aliased
				// internal type still shows up here.
				target := types.Unalias(obj.Type())
				head := add
				if obj.IsAlias() {
					add("type %s = %s", name, typ(target))
					head = func(string, ...any) {}
				}
				named, ok := target.(*types.Named)
				if !ok {
					continue
				}
				switch u := named.Underlying().(type) {
				case *types.Struct:
					head("type %s struct", name)
					for i := 0; i < u.NumFields(); i++ {
						f := u.Field(i)
						switch {
						case !f.Exported():
						case f.Embedded():
							add("type %s struct, embedded %s", name, typ(f.Type()))
						default:
							add("type %s struct, %s %s", name, f.Name(), typ(f.Type()))
						}
					}
				case *types.Interface:
					head("type %s interface", name)
					for i := 0; i < u.NumMethods(); i++ {
						if m := u.Method(i); m.Exported() {
							add("type %s interface, %s%s", name, m.Name(), signature(m.Type().(*types.Signature), typ))
						}
					}
				default:
					head("type %s %s", name, typ(u))
				}
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					if !m.Exported() {
						continue
					}
					recv := name
					if _, ok := m.Type().(*types.Signature).Recv().Type().(*types.Pointer); ok {
						recv = "*" + name
					}
					add("method (%s) %s%s", recv, m.Name(), signature(m.Type().(*types.Signature), typ))
				}
			}
		}
	}
	slices.Sort(lines)
	return lines
}

// signature renders a function type without its parameter names:
// "(string, ...int) (T, error)".
func signature(sig *types.Signature, typ func(types.Type) string) string {
	list := func(t *types.Tuple, variadic bool) string {
		parts := make([]string, t.Len())
		for i := range parts {
			if v := t.At(i).Type(); variadic && i == len(parts)-1 {
				parts[i] = "..." + typ(v.(*types.Slice).Elem())
			} else {
				parts[i] = typ(v)
			}
		}
		return strings.Join(parts, ", ")
	}
	s := "(" + list(sig.Params(), sig.Variadic()) + ")"
	switch res := sig.Results(); res.Len() {
	case 0:
	case 1:
		s += " " + list(res, false)
	default:
		s += " (" + list(res, false) + ")"
	}
	return s
}

// TestExportedSurfacePinned holds pkg/xcbc and pkg/xcbc/api to
// pkg/xcbc/api.txt. After a deliberate SDK change, rewrite the file with
//
//	go test -run TestExportedSurfacePinned ./internal/analysis/ -update
func TestExportedSurfacePinned(t *testing.T) {
	_, pkgs, err := Load("../..", "./pkg/xcbc", "./pkg/xcbc/api")
	if err != nil {
		t.Fatal(err)
	}
	got := surface(pkgs)
	if *update {
		if err := os.WriteFile(surfaceFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(surfaceFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	for _, line := range got {
		if !slices.Contains(want, line) {
			t.Errorf("+ %s", line)
		}
	}
	for _, line := range want {
		if !slices.Contains(got, line) {
			t.Errorf("- %s", line)
		}
	}
	if t.Failed() {
		t.Log("the SDK surface differs from pkg/xcbc/api.txt; rerun with -update if the change is deliberate")
	}
}

// TestSurfaceAliasFixture holds surface to testdata/src/surface: an alias
// prints its target and lists the target's exported fields and methods
// under its own name, so a change to an aliased type shows in api.txt as
// it would for a declared one.
func TestSurfaceAliasFixture(t *testing.T) {
	_, pkgs, err := Load("testdata/src/surface", "./sdk")
	if err != nil {
		t.Fatal(err)
	}
	got := surface(pkgs)
	want := []string{
		"pkg surface/sdk, method (*Row) Reset()",
		"pkg surface/sdk, method (Row) Len() int",
		"pkg surface/sdk, type Count int",
		"pkg surface/sdk, type Reader = view.Reader",
		"pkg surface/sdk, type Reader interface, Read() view.Row",
		"pkg surface/sdk, type Row = view.Row",
		"pkg surface/sdk, type Row struct, ID int",
		"pkg surface/sdk, type Row struct, Tags []view.Tag",
		"pkg surface/sdk, type Rows = []view.Row",
	}
	if !slices.Equal(got, want) {
		t.Errorf("surface:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
