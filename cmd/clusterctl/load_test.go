package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// TestLoadCmd pins `clusterctl load`'s output lines and exit codes: 0 when
// every response is 2xx or 429, 1 when one is not or a connection fails,
// and 1 with nothing sent when -n is over the cap.
func TestLoadCmd(t *testing.T) {
	t.Setenv("CLUSTERCTL_API_KEY", "")
	t.Cleanup(func() { apiKey = "" })
	var hits atomic.Int64
	var auth atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		auth.Store(r.Header.Get("Authorization"))
		switch r.URL.Query().Get("limit") {
		case "2": // the fleets page: these fail or hang up when asked to
			if r.Header.Get("Authorization") == "Bearer fail" {
				w.WriteHeader(http.StatusInternalServerError)
				return
			}
			if r.Header.Get("Authorization") == "Bearer hangup" {
				if c, _, err := http.NewResponseController(w).Hijack(); err == nil {
					c.Close()
				}
				return
			}
		}
		if r.URL.Path == "/api/v1/store" {
			w.WriteHeader(http.StatusTooManyRequests) // back-pressure is not a failure
		}
	}))
	defer srv.Close()
	load := func(args ...string) (int, string, string) {
		var stdout, stderr bytes.Buffer
		code := loadCmd(append([]string{"-server", srv.URL + "/"}, args...), &stdout, &stderr)
		return code, stdout.String(), stderr.String()
	}

	code, out, errOut := load("-n", "200", "-workers", "4", "-api-key", "secret")
	if code != 0 || errOut != "" {
		t.Fatalf("healthy server: exit %d, stderr %q", code, errOut)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "200 requests in ") || !strings.HasPrefix(lines[1], "latency p50=") ||
		!strings.HasPrefix(lines[2], "status 200×") || !strings.Contains(lines[2], " 429×") {
		t.Fatalf("healthy server printed:\n%s", out)
	}
	if got := auth.Load(); got != "Bearer secret" {
		t.Fatalf("-api-key reached the server as Authorization %q", got)
	}

	for _, key := range []string{"fail", "hangup"} {
		code, out, errOut = load("-n", "400", "-api-key", key)
		if code != 1 || !strings.Contains(errOut, "responses outside 2xx/429") {
			t.Fatalf("-api-key %s: exit %d, stderr %q", key, code, errOut)
		}
		if want := map[string]string{"fail": " 500×", "hangup": " errors×"}[key]; !strings.Contains(out, want) {
			t.Fatalf("-api-key %s: status line lacks %q:\n%s", key, want, out)
		}
	}

	before := hits.Load()
	if code, out, errOut = load("-n", "10000001"); code != 1 || out != "" || !strings.Contains(errOut, "10,000,000") {
		t.Fatalf("-n 10000001: exit %d, stdout %q, stderr %q", code, out, errOut)
	}
	if hits.Load() != before {
		t.Fatalf("-n 10000001 sent %d requests", hits.Load()-before)
	}
}
