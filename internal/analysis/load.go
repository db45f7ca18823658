package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, parsed, typechecked package ready for analysis.
type Package struct {
	ImportPath string
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	TypeErrors []error
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	CgoFiles   []string
	Standard   bool
	DepOnly    bool
	Export     string
	Error      *struct{ Err string }
}

// Load lists the packages matching patterns from dir (a module root or any
// directory inside one), parses and typechecks the matched packages, and
// returns them in `go list` order. Dependencies — including the standard
// library — are never re-typechecked: `go list -export` compiles them into
// the build cache and the stdlib gc importer reads their export data, so
// loading the whole module costs one cached build plus one typecheck of
// the matched sources.
func Load(dir string, patterns ...string) (*token.FileSet, []*Package, error) {
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,Name,GoFiles,CgoFiles,Standard,DepOnly,Export,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := make(map[string]string)
	var listed []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		listed = append(listed, &p)
	}

	fset := token.NewFileSet()
	imp := ExportImporter(fset, func(path string) (string, bool) {
		f, ok := exports[path]
		return f, ok
	})

	var pkgs []*Package
	for _, lp := range listed {
		if lp.DepOnly || lp.Standard {
			continue
		}
		if lp.Error != nil {
			return nil, nil, fmt.Errorf("package %s: %s", lp.ImportPath, lp.Error.Err)
		}
		files, err := ParseFiles(fset, lp.Dir, append(append([]string{}, lp.GoFiles...), lp.CgoFiles...))
		if err != nil {
			return nil, nil, fmt.Errorf("package %s: %v", lp.ImportPath, err)
		}
		tpkg, info, terrs := TypeCheck(fset, lp.ImportPath, files, imp)
		pkgs = append(pkgs, &Package{
			ImportPath: lp.ImportPath,
			Files:      files,
			Types:      tpkg,
			Info:       info,
			TypeErrors: terrs,
		})
	}
	return fset, pkgs, nil
}

// ParseFiles parses the named files (relative names resolve against dir).
func ParseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, name)
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(fset, path, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// ExportImporter returns a types importer that resolves every import from
// compiler export data located by resolve (import path → export file).
// One importer instance caches imported packages across calls.
func ExportImporter(fset *token.FileSet, resolve func(path string) (string, bool)) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := resolve(path)
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// TypeCheck typechecks one package's parsed files, tolerating type errors:
// the partial types.Info is still usable by analyzers, and the caller
// decides whether the collected errors are fatal.
func TypeCheck(fset *token.FileSet, importPath string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, []error) {
	var terrs []error
	conf := types.Config{
		Importer:    imp,
		FakeImportC: true,
		Error:       func(err error) { terrs = append(terrs, err) },
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	tpkg, _ := conf.Check(importPath, fset, files, info)
	return tpkg, info, terrs
}
