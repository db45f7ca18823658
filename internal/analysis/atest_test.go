package analysis

import (
	"go/token"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The fixture harness mirrors x/tools analysistest: fixture packages under
// testdata/src/fix annotate the lines where diagnostics are expected with
//
//	// want "regex" ["regex" ...]
//
// and the runner fails on any unmatched want or unexpected diagnostic. The
// fixture tree is its own module so `go list -export` can load it offline.

var fixture struct {
	once sync.Once
	fset *token.FileSet
	pkgs map[string]*Package
	err  error
}

func loadFixture(t *testing.T) (*token.FileSet, map[string]*Package) {
	t.Helper()
	fixture.once.Do(func() {
		fset, pkgs, err := Load("testdata/src/fix", "./...")
		if err != nil {
			fixture.err = err
			return
		}
		fixture.fset = fset
		fixture.pkgs = make(map[string]*Package, len(pkgs))
		for _, p := range pkgs {
			if len(p.TypeErrors) > 0 {
				t.Errorf("fixture package %s has type errors: %v", p.ImportPath, p.TypeErrors)
			}
			fixture.pkgs[p.ImportPath] = p
		}
	})
	if fixture.err != nil {
		t.Fatalf("loading fixture module: %v", fixture.err)
	}
	return fixture.fset, fixture.pkgs
}

// want is one expectation parsed from a fixture comment.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile(`// want (.*)$`)

// collectWants parses every `// want "..."` comment in the package.
func collectWants(t *testing.T, fset *token.FileSet, pkg *Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, q := range splitQuoted(t, pos.String(), m[1]) {
					re, err := regexp.Compile(q)
					if err != nil {
						t.Fatalf("%s: bad want regex %q: %v", pos, q, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// splitQuoted parses a sequence of Go-quoted strings: `"a" "b"`.
func splitQuoted(t *testing.T, at, s string) []string {
	t.Helper()
	var out []string
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			return out
		}
		if !strings.HasPrefix(s, `"`) {
			t.Fatalf("%s: malformed want clause %q", at, s)
		}
		end := strings.Index(s[1:], `"`)
		if end < 0 {
			t.Fatalf("%s: unterminated want string %q", at, s)
		}
		q, err := strconv.Unquote(s[:end+2])
		if err != nil {
			t.Fatalf("%s: bad want string %q: %v", at, s[:end+2], err)
		}
		out = append(out, q)
		s = s[end+2:]
	}
}

// runFixture analyzes one fixture package and checks its diagnostics
// against the want comments.
func runFixture(t *testing.T, a *Analyzer, importPath string) {
	t.Helper()
	fset, pkgs := loadFixture(t)
	pkg, ok := pkgs[importPath]
	if !ok {
		t.Fatalf("fixture package %q not loaded", importPath)
	}
	var diags []Diagnostic
	pass := &Pass{
		Fset:       fset,
		Files:      pkg.Files,
		Pkg:        pkg.Types,
		Info:       pkg.Info,
		ImportPath: importPath,
		// Fixture paths are not in the real deterministic set; the tests
		// assert analyzer behavior, so both gates are forced open.
		Deterministic:  true,
		OrderSensitive: true,
		Report:         func(d Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("%s on %s: %v", a.Name, importPath, err)
	}

	matchWants(t, fset, collectWants(t, fset, pkg), diags)
}

// matchWants fails on every diagnostic no want expects and every want no
// diagnostic matched.
func matchWants(t *testing.T, fset *token.FileSet, wants []*want, diags []Diagnostic) {
	t.Helper()
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func TestDetclockFixture(t *testing.T) { runFixture(t, Detclock, "fix/clock") }

func TestDetrandFixtureV1(t *testing.T) { runFixture(t, Detrand, "fix/randv1") }

func TestDetrandFixtureV2(t *testing.T) { runFixture(t, Detrand, "fix/randv2") }

func TestMaporderFixture(t *testing.T) { runFixture(t, Maporder, "fix/order") }

func TestErrdropFixture(t *testing.T) { runFixture(t, Errdrop, "fix/errdropcase") }

func TestLockcopyFixture(t *testing.T) { runFixture(t, Lockcopy, "fix/lockcase") }

func TestNoglobalsFixture(t *testing.T) { runFixture(t, Noglobals, "fix/globals") }

// TestGatedAnalyzersRespectPackageSets proves detclock, detrand, maporder
// and noglobals are inert outside their package sets: the same violating
// fixtures produce zero diagnostics when the gates are closed.
func TestGatedAnalyzersRespectPackageSets(t *testing.T) {
	fset, pkgs := loadFixture(t)
	for _, tc := range []struct {
		a          *Analyzer
		importPath string
	}{
		{Detclock, "fix/clock"},
		{Detrand, "fix/randv1"},
		{Detrand, "fix/randv2"},
		{Maporder, "fix/order"},
		{Noglobals, "fix/globals"},
	} {
		pkg := pkgs[tc.importPath]
		if pkg == nil {
			t.Fatalf("fixture package %q not loaded", tc.importPath)
		}
		pass := &Pass{
			Fset: fset, Files: pkg.Files, Pkg: pkg.Types,
			Info: pkg.Info, ImportPath: tc.importPath,
			Report: func(d Diagnostic) {
				t.Errorf("%s on %s fired outside its package set: %s", tc.a.Name, tc.importPath, d.Message)
			},
		}
		if err := tc.a.Run(pass); err != nil {
			t.Fatalf("%s on %s: %v", tc.a.Name, tc.importPath, err)
		}
	}
}
