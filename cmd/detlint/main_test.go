package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExactlySixAnalyzers pins the suite: the determinism contract names
// six invariants, and the registry must carry exactly those six passes.
// Growing the suite is fine — do it here, in DESIGN.md, and in the
// fixtures, as one deliberate change.
func TestExactlySixAnalyzers(t *testing.T) {
	want := []string{"detclock", "detrand", "maporder", "errdrop", "lockcopy", "noglobals"}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("registry has %d analyzers, want exactly %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer %d is %q, want %q", i, a.Name, want[i])
		}
		if a.Run == nil {
			t.Errorf("analyzer %q has no Run", a.Name)
		}
	}
}

// buildDetlint compiles the detlint binary once per test run.
func buildDetlint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "detlint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building detlint: %v\n%s", err, out)
	}
	return bin
}

// TestVettoolProtocol drives the real `go vet -vettool=` integration over
// the vet fixture module: a clean package passes, a violating package
// fails with the lockcopy diagnostic on stderr. This is the end-to-end
// proof that detlint speaks the vet driver protocol (-V=full, -flags,
// vet.cfg units).
func TestVettoolProtocol(t *testing.T) {
	bin := buildDetlint(t)
	fixtureDir, err := filepath.Abs(filepath.Join("..", "..", "internal", "analysis", "testdata", "src", "vet"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(fixtureDir, "go.mod")); err != nil {
		t.Fatalf("vet fixture module missing: %v", err)
	}

	vet := func(pattern string) (string, error) {
		cmd := exec.Command("go", "vet", "-vettool="+bin, pattern)
		cmd.Dir = fixtureDir
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = &out
		err := cmd.Run()
		return out.String(), err
	}

	if out, err := vet("./clean"); err != nil {
		t.Errorf("go vet over clean fixture failed: %v\n%s", err, out)
	}
	out, err := vet("./bad")
	if err == nil {
		t.Fatalf("go vet over violating fixture succeeded; output:\n%s", out)
	}
	if !strings.Contains(out, "value receiver") || !strings.Contains(out, "lockcopy") {
		t.Errorf("vet output missing the lockcopy diagnostic:\n%s", out)
	}
}

// TestStandaloneMode drives the pattern-based entry point the CI lint
// script uses, including the exit-code contract: 0 clean, 1 findings.
func TestStandaloneMode(t *testing.T) {
	bin := buildDetlint(t)
	fixtureDir, err := filepath.Abs(filepath.Join("..", "..", "internal", "analysis", "testdata", "src", "vet"))
	if err != nil {
		t.Fatal(err)
	}

	run := func(pattern string) (string, int) {
		cmd := exec.Command(bin, pattern)
		cmd.Dir = fixtureDir
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = &out
		err := cmd.Run()
		code := 0
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("running detlint: %v", err)
		}
		return out.String(), code
	}

	if out, code := run("./clean"); code != 0 {
		t.Errorf("detlint ./clean exited %d, want 0:\n%s", code, out)
	}
	out, code := run("./bad")
	if code != 1 {
		t.Errorf("detlint ./bad exited %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "[lockcopy]") {
		t.Errorf("standalone output missing the [lockcopy] diagnostic:\n%s", out)
	}
}

// TestVersionFlag checks the -V=full contract: at least three fields with
// "version" second, so cmd/go accepts the line as a tool ID.
func TestVersionFlag(t *testing.T) {
	bin := buildDetlint(t)
	out, err := exec.Command(bin, "-V=full").Output()
	if err != nil {
		t.Fatalf("detlint -V=full: %v", err)
	}
	f := strings.Fields(strings.TrimSpace(string(out)))
	if len(f) < 3 || f[0] != "detlint" || f[1] != "version" {
		t.Errorf("-V=full printed %q; want \"detlint version <id>\"", strings.TrimSpace(string(out)))
	}
	if f[2] == "devel" || f[2] == "unknown" {
		t.Errorf("-V=full version %q is not a content hash; vet caching would be unsound", f[2])
	}
}
