// Detlint is the multichecker for this repository's determinism and
// durability invariants (see DESIGN.md, "Static analysis: the determinism
// contract"). It runs the six internal/analysis passes — detclock,
// detrand, maporder, errdrop, lockcopy, noglobals — in two modes:
//
// Standalone, over package patterns (exit 0 clean, 1 findings, 2 unusable):
//
//	go run ./cmd/detlint ./...
//
// As a `go vet` tool, speaking the vet driver protocol (-V=full, -flags,
// and JSON vet.cfg units), so the suite composes with the build cache:
//
//	go build -o detlint ./cmd/detlint
//	go vet -vettool=./detlint ./...
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/token"
	"os"
	"sort"
	"strings"

	"xcbc/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	var patterns []string
	for _, arg := range args {
		switch {
		case arg == "-V=full" || arg == "--V=full":
			return printVersion()
		case arg == "-flags" || arg == "--flags":
			// The vet driver interrogates tools for their flags; the
			// suite is deliberately knob-free.
			fmt.Println("[]")
			return 0
		case strings.HasSuffix(arg, ".cfg"):
			return runVetUnit(arg)
		case strings.HasPrefix(arg, "-"):
			fmt.Fprintf(os.Stderr, "detlint: unknown flag %s\n", arg)
			return 2
		default:
			patterns = append(patterns, arg)
		}
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	return runStandalone(patterns)
}

// printVersion implements -V=full. The version string doubles as the vet
// driver's cache key, so it embeds a content hash of the executable:
// rebuild detlint and every cached vet verdict is invalidated.
func printVersion() int {
	id := "unknown"
	if exe, err := os.Executable(); err == nil {
		if data, err := os.ReadFile(exe); err == nil {
			sum := sha256.Sum256(data)
			id = fmt.Sprintf("%x", sum[:12])
		}
	}
	fmt.Printf("detlint version %s\n", id)
	return 0
}

// runStandalone loads the patterns through `go list -export` and analyzes
// every matched package.
func runStandalone(patterns []string) int {
	fset, pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "detlint: %v\n", err)
		return 2
	}
	findings := 0
	for _, pkg := range pkgs {
		if len(pkg.TypeErrors) > 0 {
			for _, terr := range pkg.TypeErrors {
				fmt.Fprintf(os.Stderr, "detlint: %s: %v\n", pkg.ImportPath, terr)
			}
			return 2
		}
		findings += analyze(fset, pkg.ImportPath, pkg, os.Stderr)
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "detlint: %d finding(s)\n", findings)
		return 1
	}
	return 0
}

// analyze runs the whole suite over one loaded package, printing sorted
// diagnostics, and returns the finding count.
func analyze(fset *token.FileSet, importPath string, pkg *analysis.Package, w *os.File) int {
	canonical := analysis.CanonicalImportPath(importPath)
	type finding struct {
		d    analysis.Diagnostic
		name string
	}
	var findings []finding
	for _, a := range Analyzers() {
		a := a
		pass := &analysis.Pass{
			Fset:           fset,
			Files:          pkg.Files,
			Pkg:            pkg.Types,
			Info:           pkg.Info,
			ImportPath:     canonical,
			Deterministic:  analysis.IsDeterministic(canonical),
			OrderSensitive: analysis.IsOrderSensitive(canonical),
			Report: func(d analysis.Diagnostic) {
				findings = append(findings, finding{d, a.Name})
			},
		}
		if err := a.Run(pass); err != nil {
			fmt.Fprintf(w, "detlint: %s: %s: %v\n", a.Name, canonical, err)
		}
	}
	sort.SliceStable(findings, func(i, j int) bool {
		pi, pj := fset.Position(findings[i].d.Pos), fset.Position(findings[j].d.Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	for _, f := range findings {
		fmt.Fprintf(w, "%s: [%s] %s\n", fset.Position(f.d.Pos), f.name, f.d.Message)
	}
	return len(findings)
}

// vetConfig mirrors the JSON unit description cmd/go writes for vet tools
// (cmd/go/internal/work.vetConfig).
type vetConfig struct {
	ID           string
	Compiler     string
	Dir          string
	ImportPath   string
	GoFiles      []string
	NonGoFiles   []string
	IgnoredFiles []string

	ModulePath    string
	ModuleVersion string
	ImportMap     map[string]string
	PackageFile   map[string]string
	Standard      map[string]bool
	PackageVetx   map[string]string
	VetxOnly      bool
	VetxOutput    string
	GoVersion     string

	SucceedOnTypecheckFailure bool
}

// runVetUnit analyzes one package unit described by a vet.cfg file.
func runVetUnit(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "detlint: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "detlint: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// The suite declares no cross-package facts, so dependency-only units
	// need no analysis — just the output file the driver expects.
	if cfg.VetxOnly {
		return writeVetx(cfg.VetxOutput)
	}

	fset := token.NewFileSet()
	files, err := analysis.ParseFiles(fset, cfg.Dir, cfg.GoFiles)
	if err != nil {
		fmt.Fprintf(os.Stderr, "detlint: %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	imp := analysis.ExportImporter(fset, func(path string) (string, bool) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		f, ok := cfg.PackageFile[path]
		return f, ok
	})
	tpkg, info, terrs := analysis.TypeCheck(fset, cfg.ImportPath, files, imp)
	if len(terrs) > 0 {
		if cfg.SucceedOnTypecheckFailure {
			return writeVetx(cfg.VetxOutput)
		}
		for _, terr := range terrs {
			fmt.Fprintf(os.Stderr, "detlint: %v\n", terr)
		}
		return 1
	}
	pkg := &analysis.Package{
		ImportPath: cfg.ImportPath,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}
	findings := analyze(fset, cfg.ImportPath, pkg, os.Stderr)
	if code := writeVetx(cfg.VetxOutput); code != 0 {
		return code
	}
	if findings > 0 {
		return 2
	}
	return 0
}

// writeVetx writes the (empty) facts file the vet driver expects as this
// unit's output.
func writeVetx(path string) int {
	if path == "" {
		return 0
	}
	if err := os.WriteFile(path, []byte("detlint: no facts\n"), 0o666); err != nil {
		fmt.Fprintf(os.Stderr, "detlint: %v\n", err)
		return 1
	}
	return 0
}
