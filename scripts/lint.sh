#!/usr/bin/env bash
# Static-analysis gate: everything that must hold before a commit merges.
#
#   1. gofmt             — the whole tree, fixtures included: `gofmt -l .`
#                          walks testdata/, which go tooling otherwise
#                          ignores. The detlint fixture modules under
#                          internal/analysis/testdata are real, buildable
#                          Go and are kept gofmt-clean on purpose — do not
#                          exclude testdata here.
#   2. go vet            — the standard passes.
#   3. detlint           — the six-analyzer determinism/durability suite
#                          (cmd/detlint), run through the real
#                          `go vet -vettool=` driver so CI exercises the
#                          same protocol developers do. Findings are build
#                          errors; reviewed exceptions live in the code as
#                          //detlint:<directive> comments with mandatory
#                          justifications (DESIGN.md, "Static analysis").
#   4. govulncheck       — known-vulnerability scan; skipped with a notice
#                          when the tool is absent (offline dev boxes),
#                          installed on demand in CI where there is network.
#   5. reachability      — TestNoUnreachedExports (no exported name under
#                          internal/ or pkg/, and no struct field, that only
#                          tests reach), its fixture, the pinned SDK
#                          surface in pkg/xcbc/api.txt, and the surface
#                          printer's alias fixture.
#
# Exit codes follow the repo convention: 0 pass, 1 findings.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
out=$(gofmt -l .)
if [ -n "$out" ]; then
  echo "files need gofmt:" >&2
  echo "$out" >&2
  exit 1
fi

echo "== go vet =="
go vet ./...

echo "== detlint (go vet -vettool) =="
bin="$(mktemp -d)/detlint"
trap 'rm -rf "$(dirname "$bin")"' EXIT
go build -o "$bin" ./cmd/detlint
go vet -vettool="$bin" ./...

echo "== govulncheck =="
if command -v govulncheck >/dev/null 2>&1; then
  govulncheck ./...
else
  echo "govulncheck not installed; skipping (CI installs it; locally: go install golang.org/x/vuln/cmd/govulncheck@latest)"
fi

echo "== reachability + SDK surface =="
go test -run 'TestNoUnreachedExports|TestUnreachedFixture|TestExportedSurfacePinned|TestSurfaceAliasFixture' ./internal/analysis/

echo "lint: all gates passed"
