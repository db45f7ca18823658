package xcbc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCISelectionsNameRealTests reads each go test line of the CI workflow
// and requires every alternative of its -run and -fuzz patterns, split on
// '|', to match a Test or Fuzz function in the _test.go files of the
// packages that line lists, so that a rename cannot silently empty a CI
// step. ^$ selects nothing on purpose. The names are read with go/parser,
// without compiling.
func TestCISelectionsNameRealTests(t *testing.T) {
	ci := readDoc(t, filepath.Join(".github", "workflows", "ci.yml"))
	names := map[string][]string{} // by package directory
	checked := 0
	for _, line := range strings.Split(ci, "\n") {
		line = strings.TrimSpace(line)
		i := strings.Index(line, "go test ")
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		var patterns, funcs []string
		args := shellWords(line[i+len("go test "):])
		for j := 0; j < len(args); j++ {
			switch a := args[j]; {
			case (a == "-run" || a == "-fuzz") && j+1 < len(args):
				j++
				patterns = append(patterns, args[j])
			case strings.HasPrefix(a, "-run=") || strings.HasPrefix(a, "-fuzz="):
				patterns = append(patterns, a[strings.IndexByte(a, '=')+1:])
			case a == "." || strings.HasPrefix(a, "./"):
				for _, dir := range packageDirs(t, a) {
					if _, ok := names[dir]; !ok {
						names[dir] = testFuncs(t, dir)
					}
					funcs = append(funcs, names[dir]...)
				}
			}
		}
		for _, p := range patterns {
			for _, alt := range strings.Split(p, "|") {
				if alt == "^$" {
					continue
				}
				checked++
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("ci.yml: %q in %q: %v", alt, line, err)
				} else if !slices.ContainsFunc(funcs, re.MatchString) {
					t.Errorf("ci.yml: %q matches no Test or Fuzz function of the packages in %q", alt, line)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("ci.yml has no -run or -fuzz pattern to check; did its format change?")
	}
}

// shellWords splits a command line on blanks outside single or double
// quotes, dropping the quotes: enough for the go test lines of ci.yml.
func shellWords(s string) []string {
	var words []string
	var cur strings.Builder
	var quote rune
	inWord := false
	for _, c := range s {
		switch {
		case quote != 0 && c == quote:
			quote = 0
		case quote != 0:
			cur.WriteRune(c)
		case c == '\'' || c == '"':
			quote, inWord = c, true
		case c == ' ' || c == '\t':
			if inWord {
				words, inWord = append(words, cur.String()), false
				cur.Reset()
			}
		default:
			cur.WriteRune(c)
			inWord = true
		}
	}
	if inWord {
		words = append(words, cur.String())
	}
	return words
}

// packageDirs resolves one go test package argument, "./dir/" or a
// "./dir/..." pattern, to the directories it names.
func packageDirs(t *testing.T, arg string) []string {
	root, ok := strings.CutSuffix(arg, "...")
	if !ok {
		return []string{filepath.Clean(arg)}
	}
	var dirs []string
	for _, f := range repoFiles(t, filepath.Clean(root), func(path string) bool { return strings.HasSuffix(path, "_test.go") }) {
		if dir := filepath.Dir(f); !slices.Contains(dirs, dir) {
			dirs = append(dirs, dir)
		}
	}
	return dirs
}

// testFuncs lists the Test and Fuzz functions the _test.go files of dir
// declare.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("ci.yml lists %s, which has no _test.go files (%v)", dir, err)
	}
	var funcs []string
	for _, path := range files {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil &&
				(strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz")) {
				funcs = append(funcs, fn.Name.Name)
			}
		}
	}
	return funcs
}
