package main

import (
	"bytes"
	"context"
	"io/fs"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"xcbc/pkg/xcbc"
	"xcbc/pkg/xcbc/api"
)

// The debug listener and the API are disjoint: pprof answers only on the
// debug mux, and the debug mux serves nothing of the API.
func TestDebugMuxIsSeparateFromAPI(t *testing.T) {
	get := func(h http.Handler, path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}
	dbg := debugMux()
	if rec := get(dbg, "/debug/pprof/"); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Fatalf("pprof index = %d %.80s", rec.Code, rec.Body.String())
	}
	if rec := get(dbg, "/debug/pprof/heap?debug=1"); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "heap profile") {
		t.Fatalf("heap profile = %d %.80s", rec.Code, rec.Body.String())
	}
	if rec := get(dbg, "/api/v1/healthz"); rec.Code != http.StatusNotFound {
		t.Fatalf("debug mux answered the API: %d", rec.Code)
	}
	srv := api.New(api.Config{})
	defer srv.Close()
	if rec := get(srv.Handler(), "/debug/pprof/"); rec.Code != http.StatusNotFound {
		t.Fatalf("API handler answered pprof: %d", rec.Code)
	}
}

// syncBuffer is run's stdout for a test that reads it while run writes.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// dirBytes reads every file under dir.
func dirBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		out[path] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// A second repo-server started by mistake on a live server's -addr and
// -data-dir must die on the bind, before recovery reads, journals into,
// snapshots or truncates the log the live process is appending to. The
// DataDir here holds a build with no settled record — what a live server's
// in-flight build looks like on disk — which recovery would reconcile to
// failed (interrupted) with an append and, at -snapshot-every 1, a snapshot
// and a deleted segment.
func TestAddrInUseFailsBeforeDataDirIsTouched(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	live, _, err := api.Open(api.Config{DataDir: dir,
		DeployOptions: []xcbc.Option{xcbc.WithInstallHook(func(string, int) error {
			<-gate
			return nil
		})}})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	live.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/deployments", strings.NewReader(`{"cluster":"littlefe"}`)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("create: %d %s", rec.Code, rec.Body.String())
	}
	live.Close() // flushes the log; the gated build never settles
	close(gate)
	before := dirBytes(t, dir)
	if len(before) == 0 {
		t.Fatal("the DataDir is empty: nothing for a second server to damage")
	}

	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	var stdout, stderr bytes.Buffer
	status := run(context.Background(), []string{"-quiet", "-addr", taken.Addr().String(),
		"-data-dir", dir, "-snapshot-every", "1"}, &stdout, &stderr)
	if status == 0 || !strings.Contains(stderr.String(), "address already in use") {
		t.Fatalf("exit status %d, stderr %q: want a bind failure", status, stderr.String())
	}
	if strings.Contains(stdout.String(), "recovered") {
		t.Errorf("recovery ran before the bind failed:\n%s", stdout.String())
	}
	if after := dirBytes(t, dir); !maps.Equal(before, after) {
		t.Errorf("the refused start changed the DataDir: %d files before, %d after", len(before), len(after))
	}
}

// -addr 127.0.0.1:0 is usable: the "serving ... on" line names the port the
// kernel picked, the server answers there, and cancelling run's context
// shuts it down cleanly.
func TestServesOnTheAddressItPrints(t *testing.T) {
	serveOnce(t, "-quiet", "-addr", "127.0.0.1:0", "-data-dir", t.TempDir())
}

// The recovery line reports what -data-dir held; a memory-only server
// recovers nothing and prints no such line.
func TestRecoveryLineOnlyWithDataDir(t *testing.T) {
	dir := t.TempDir()
	if out := serveOnce(t, "-quiet", "-addr", "127.0.0.1:0", "-data-dir", dir); !strings.Contains(out, "recovered "+dir+" in ") {
		t.Errorf("a durable server printed no recovery line for its DataDir:\n%s", out)
	}
	if out := serveOnce(t, "-quiet", "-addr", "127.0.0.1:0"); strings.Contains(out, "recovered") {
		t.Errorf("a memory-only server printed a recovery line:\n%s", out)
	}
}

// serveOnce runs the server with args until it answers on the address it
// prints, then cancels it, requires a clean shutdown, and returns what it
// wrote to stdout.
func serveOnce(t *testing.T, args ...string) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout syncBuffer
	var stderr bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, args, &stdout, &stderr)
	}()
	serving := regexp.MustCompile(`and API v1 on (127\.0\.0\.1:[1-9][0-9]*)\n`)
	var addr string
	for deadline := time.Now().Add(10 * time.Second); addr == ""; time.Sleep(time.Millisecond) {
		if m := serving.FindStringSubmatch(stdout.String()); m != nil {
			addr = m[1]
		} else if time.Now().After(deadline) || len(done) > 0 {
			t.Fatalf("no serving line with a real port:\nstdout: %s\nstderr: %s", stdout.String(), stderr.String())
		}
	}
	resp, err := http.Get("http://" + addr + "/api/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz on the printed address: %d", resp.StatusCode)
	}
	cancel()
	select {
	case status := <-done:
		if status != 0 || !strings.Contains(stdout.String(), "shut down cleanly") {
			t.Fatalf("exit status %d after cancel:\nstdout: %s\nstderr: %s", status, stdout.String(), stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after its context was cancelled")
	}
	return stdout.String()
}

// A -tenants file must name at least one tenant, each with only the fields
// a TenantConfig has: an empty list would serve in open mode, and a
// misspelled limit would leave its tenant unlimited. run refuses both
// before it serves, naming the file; a valid file serves, here until the
// already-cancelled context shuts it down.
func TestTenantsFileThatLimitsNothingIsRefused(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name, file string
		status     int
	}{
		{"empty list", `[]`, 1},
		{"null", `null`, 1},
		{"misspelled rate limit", `[{"name":"physics","key":"k1","rate_limt":5}]`, 1},
		{"quota for quotas", `[{"name":"physics","key":"k1","quota":{"max_deployments":2}}]`, 1},
		{"a second value", `[{"name":"physics","key":"k1"}] []`, 1},
		{"valid", `[{"name":"physics","key":"k1","quotas":{"max_deployments":2},"rate_limit":5,"burst":10}]`, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "tenants.json")
			if err := os.WriteFile(path, []byte(tc.file), 0o600); err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			status := run(ctx, []string{"-quiet", "-addr", "127.0.0.1:0", "-tenants", path}, &stdout, &stderr)
			if status != tc.status || tc.status != 0 && !strings.Contains(stderr.String(), path) {
				t.Errorf("-tenants %s: exit %d, want %d\nstderr: %s", tc.file, status, tc.status, stderr.String())
			}
		})
	}
}
