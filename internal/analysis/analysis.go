// Package analysis is a self-contained static-analysis framework plus the
// detlint analyzer suite that proves this repository's determinism and
// durability invariants at build time.
//
// The framework deliberately mirrors the shape of golang.org/x/tools/go/
// analysis (Analyzer, Pass, Diagnostic) so the analyzers could be ported to
// the upstream driver verbatim, but it is built entirely on the standard
// library: the module must compile offline with zero dependencies, so we
// cannot import x/tools. Packages are loaded through `go list -export`
// (see load.go) and dependencies are imported from compiler export data,
// never re-typechecked from source.
//
// The five analyzers and the invariants they enforce are documented in
// DESIGN.md ("Static analysis: the determinism contract") and registered
// in cmd/detlint, which is usable both standalone (`detlint ./...`) and as
// a `go vet -vettool=` multichecker.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one single-purpose pass. Name appears in diagnostics and in
// the suppression grammar; Doc is the one-paragraph contract shown by
// `detlint -flags` consumers and the meta-tests.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Diagnostic is one finding, positioned at Pos.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one loaded package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// ImportPath is the canonical package path ("xcbc/internal/sim"),
	// with any test-variant decoration already stripped.
	ImportPath string

	// Deterministic reports membership in the deterministic package set
	// (detset.go): detclock and detrand fire only here.
	Deterministic bool

	// OrderSensitive is Deterministic plus the packages whose outputs
	// must be stably ordered without being clock-free (the REST API's
	// list builders): maporder fires here.
	OrderSensitive bool

	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)

	suppressions map[*token.File]map[int]suppression
}

// Reportf formats and reports a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// suppression is one parsed //detlint:<directive> <reason> comment.
type suppression struct {
	directive string
	reason    string
	pos       token.Pos
}

// SuppressState classifies a suppression lookup.
type SuppressState int

const (
	// NotSuppressed: no matching directive near the position.
	NotSuppressed SuppressState = iota
	// Suppressed: a matching directive with a written justification.
	Suppressed
	// MissingReason: a matching directive with no justification; the
	// analyzer must report both the original finding and the bare
	// directive, so suppressions can never silently rot into blanket
	// waivers.
	MissingReason
)

// Suppression reports whether a //detlint:<directive> comment on the same
// line as pos, or on the line immediately above it, suppresses a finding.
// The grammar is:
//
//	//detlint:<directive> <mandatory one-line justification>
//
// A directive with no justification is MissingReason: the finding stands
// and the empty directive is itself worth a diagnostic.
func (p *Pass) Suppression(pos token.Pos, directive string) SuppressState {
	tf := p.Fset.File(pos)
	if tf == nil {
		return NotSuppressed
	}
	if p.suppressions == nil {
		p.suppressions = make(map[*token.File]map[int]suppression)
	}
	byLine, ok := p.suppressions[tf]
	if !ok {
		byLine = p.collectSuppressions(tf)
		p.suppressions[tf] = byLine
	}
	line := tf.Line(pos)
	for _, l := range [2]int{line, line - 1} {
		s, ok := byLine[l]
		if !ok || s.directive != directive {
			continue
		}
		if s.reason == "" {
			return MissingReason
		}
		return Suppressed
	}
	return NotSuppressed
}

// collectSuppressions scans one file's comments for detlint directives.
func (p *Pass) collectSuppressions(tf *token.File) map[int]suppression {
	out := make(map[int]suppression)
	for _, f := range p.Files {
		if p.Fset.File(f.Pos()) != tf {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				directive, reason, ok := ParseDirective(c.Text)
				if !ok {
					continue
				}
				out[tf.Line(c.Pos())] = suppression{
					directive: directive,
					reason:    reason,
					pos:       c.Pos(),
				}
			}
		}
	}
	return out
}

// ParseDirective splits a "//detlint:<directive> <reason>" comment.
// Reason may be empty (the caller decides whether that is an error).
func ParseDirective(text string) (directive, reason string, ok bool) {
	const prefix = "//detlint:"
	if !strings.HasPrefix(text, prefix) {
		return "", "", false
	}
	rest := text[len(prefix):]
	directive, reason, _ = strings.Cut(rest, " ")
	directive = strings.TrimSpace(directive)
	if directive == "" {
		return "", "", false
	}
	return directive, strings.TrimSpace(reason), true
}

// IsTestFile reports whether the file at pos is a _test.go file. The
// determinism contract governs production code; tests prove determinism
// by other means (golden traces, double runs) and routinely use wall
// clocks and throwaway RNGs on purpose.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	tf := p.Fset.File(pos)
	return tf != nil && strings.HasSuffix(tf.Name(), "_test.go")
}

// PkgNameOf resolves an identifier to the package it names at the import
// site, or nil if the identifier is not an imported package name.
func (p *Pass) PkgNameOf(id *ast.Ident) *types.Package {
	if obj, ok := p.Info.Uses[id]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn.Imported()
		}
	}
	return nil
}
