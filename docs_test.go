package xcbc

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// The two reference documents are checked like code: a test they name
// exists, a section that code, scripts, CI or the verify skill cites
// exists, and a measured table in EXPERIMENTS.md says where its figures
// come from. bench/ is frozen by the benchmark, so its README is not read.

var referenceDocs = []string{"DESIGN.md", "EXPERIMENTS.md"}

func readDoc(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// repoFiles returns the module's files under root that keep reports true,
// skipping testdata fixtures and the git directory.
func repoFiles(t *testing.T, root string, keep func(path string) bool) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if keep(path) {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestDocsNameRealTests requires every Test…, Benchmark… and Fuzz…
// identifier in the two documents to be a test function of the module, or
// a prefix of one (a family such as BenchmarkFleetProvision).
func TestDocsNameRealTests(t *testing.T) {
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	var funcs []string
	for _, f := range repoFiles(t, ".", func(p string) bool { return strings.HasSuffix(p, "_test.go") }) {
		for _, m := range decl.FindAllStringSubmatch(readDoc(t, f), -1) {
			funcs = append(funcs, m[1])
		}
	}
	ident := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	for _, doc := range referenceDocs {
		names := ident.FindAllString(readDoc(t, doc), -1)
		slices.Sort(names)
		for _, name := range slices.Compact(names) {
			if !slices.ContainsFunc(funcs, func(f string) bool { return strings.HasPrefix(f, name) }) {
				t.Errorf("%s names %s, which no _test.go declares (nor anything it prefixes)", doc, name)
			}
		}
	}
}

// docAnchors returns what a citation may name in a Markdown document:
// each heading, and the bold lead of each paragraph or list item, outside
// fenced code.
func docAnchors(text string) []string {
	lead := regexp.MustCompile(`^(?:[-*] |\d+\. )?\*\*(.+?)\*\*`)
	var anchors []string
	fenced := false
	for _, para := range strings.Split(text, "\n\n") {
		lines := strings.Split(strings.TrimSpace(para), "\n")
		for i, line := range lines {
			line = strings.TrimSpace(line)
			if strings.HasPrefix(line, "```") {
				fenced = !fenced
				continue
			}
			switch {
			case fenced:
			case strings.HasPrefix(line, "#"):
				anchors = append(anchors, strings.TrimSpace(strings.TrimLeft(line, "#")))
			case i == 0:
				// A paragraph's bold lead may wrap onto its next lines.
				if m := lead.FindStringSubmatch(strings.Join(lines, " ")); m != nil {
					anchors = append(anchors, m[1])
				}
			default:
				if m := lead.FindStringSubmatch(line); m != nil {
					anchors = append(anchors, m[1])
				}
			}
		}
	}
	return anchors
}

// TestDocCitationsResolve requires every `<DOC>.md, "<section>"` citation
// in the module's Go files, scripts/, .github/, the verify skill and the
// two documents themselves to name the start of a heading or a bold
// paragraph lead of that document. A citation may wrap across comment
// lines.
func TestDocCitationsResolve(t *testing.T) {
	anchors := map[string][]string{}
	for _, doc := range referenceDocs {
		anchors[doc] = docAnchors(readDoc(t, doc))
	}
	files := repoFiles(t, ".", func(p string) bool { return strings.HasSuffix(p, ".go") })
	files = append(files, repoFiles(t, "scripts", func(string) bool { return true })...)
	files = append(files, repoFiles(t, ".github", func(string) bool { return true })...)
	files = append(files, filepath.Join(".claude", "skills", "verify", "SKILL.md"))
	files = append(files, referenceDocs...)

	wrap := regexp.MustCompile(`\n[ \t]*(?://|#)?[ \t]*`)
	cite := regexp.MustCompile(`\b(DESIGN|EXPERIMENTS)\.md, "([^"]+)"`)
	cited := 0
	for _, f := range files {
		text := wrap.ReplaceAllString(readDoc(t, f), " ")
		for _, m := range cite.FindAllStringSubmatch(text, -1) {
			doc, section := m[1]+".md", m[2]
			cited++
			if !slices.ContainsFunc(anchors[doc], func(a string) bool { return strings.HasPrefix(a, section) }) {
				t.Errorf("%s cites %s, %q: no heading or bold lead there starts so", f, doc, section)
			}
		}
	}
	if cited == 0 {
		t.Error("found no citations at all; the scan is broken")
	}
}

// TestExperimentTablesHaveProvenance requires every table of
// EXPERIMENTS.md outside the paper index to sit under a paragraph with a
// "Provenance:" line, with no heading or other table between them, and
// every file that paragraph names to exist.
func TestExperimentTablesHaveProvenance(t *testing.T) {
	index := map[string]bool{"Tables": true, "Figures": true, "Section-level experiments": true}
	named := regexp.MustCompile("`([\\w./-]+\\.(?:json|go|md|sh|golden|txt|ya?ml))`|\\b(BENCH_\\w+\\.json)\\b")
	section, provenance := "", ""
	collecting, inTable, fenced := false, false, false
	tables := 0
	for n, line := range strings.Split(readDoc(t, "EXPERIMENTS.md"), "\n") {
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
			continue
		}
		switch {
		case fenced:
		case strings.HasPrefix(line, "#"):
			section = strings.TrimSpace(strings.TrimLeft(line, "#"))
			provenance, collecting, inTable = "", false, false
		case strings.HasPrefix(line, "|"):
			if !inTable && !index[section] {
				tables++
				if provenance == "" {
					t.Errorf("EXPERIMENTS.md:%d: the table in %q has no Provenance: line above it", n+1, section)
				}
				for _, m := range named.FindAllStringSubmatch(provenance, -1) {
					file := m[1] + m[2]
					if _, err := os.Stat(file); err != nil {
						t.Errorf("EXPERIMENTS.md:%d: provenance names %s: %v", n+1, file, err)
					}
				}
				provenance = ""
			}
			collecting, inTable = false, true
		case strings.TrimSpace(line) == "":
			collecting, inTable = false, false
		default:
			inTable = false
			if strings.Contains(line, "Provenance:") {
				provenance, collecting = line, true
			} else if collecting {
				provenance += " " + line
			}
		}
	}
	if tables == 0 {
		t.Error("found no measured tables; the scan is broken")
	}
}

// TestReferenceDocsStayLegible holds each reference document under a size
// ceiling, in bytes: past it, a document has stopped being read, and the
// fix is to cut what no longer describes the system.
func TestReferenceDocsStayLegible(t *testing.T) {
	for doc, ceiling := range map[string]int{"EXPERIMENTS.md": 40_000, "DESIGN.md": 50_000} {
		if n := len(readDoc(t, doc)); n > ceiling {
			t.Errorf("%s is %d bytes, over its %d-byte ceiling", doc, n, ceiling)
		}
	}
}
