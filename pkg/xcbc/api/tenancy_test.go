package api

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"xcbc/internal/repo"
	"xcbc/pkg/xcbc"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// newMTServer builds a multi-tenant in-memory server with a fixed clock
// (overridable via the returned pointer for rate-limit tests).
func newMTServer(t *testing.T, tenants ...TenantConfig) (*Server, *time.Time) {
	t.Helper()
	xnit, err := xcbc.NewXNITRepository()
	if err != nil {
		t.Fatal(err)
	}
	now := time.Date(2015, 9, 8, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	s := New(Config{Repos: []*repo.Repository{xnit}, Clock: clock, Tenants: tenants})
	t.Cleanup(func() { s.Close() })
	return s, &now
}

// doKey runs one request against the handler, as key's tenant when key is
// set, and decodes a JSON body into out (when out is non-nil).
func doKey(t *testing.T, s *Server, key, method, path, body string, out any) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec
}

func twoTenants() []TenantConfig {
	return []TenantConfig{
		{Name: "alpha", Key: "alpha-key"},
		{Name: "beta", Key: "beta-key"},
	}
}

// TestAdmission4xx is the table-driven 4xx contract: 401 for missing and
// unknown keys on every route class, 403 with the typed quota body, 429
// with Retry-After, and 400 for malformed cursor/limit on every paginated
// route. Every error keeps the {"error": ...} envelope.
func TestAdmission4xx(t *testing.T) {
	t.Run("auth", func(t *testing.T) {
		s, _ := newMTServer(t, twoTenants()...)
		fill := strings.NewReplacer("{id}", "x9", "{jid}", "9", "{sid}", "s9")
		wantError := func(rec *httptest.ResponseRecorder, what, fragment string) {
			t.Helper()
			var e struct {
				Error string `json:"error"`
			}
			if json.Unmarshal(rec.Body.Bytes(), &e) != nil || !strings.Contains(e.Error, fragment) {
				t.Errorf("%s: body %s, want an {\"error\": ...} envelope naming %q", what, rec.Body.String(), fragment)
			}
		}
		// Every route of the table: 401 without a key and with a wrong one,
		// except the bootstrap exemptions (discovery and health), and never
		// 401 with a tenant's key.
		for _, rt := range s.routes {
			path := fill.Replace(rt.Path)
			exempt := slices.Contains(admitExempt, rt.Method+" "+rt.Path)
			for key, fragment := range map[string]string{"": "missing API key", "wrong-key": "unknown API key"} {
				what := fmt.Sprintf("%s %s key=%q", rt.Method, path, key)
				rec := doKey(t, s, key, rt.Method, path, "", nil)
				switch {
				case exempt && rec.Code != http.StatusOK:
					t.Errorf("%s: %d, want 200 (admission-exempt)", what, rec.Code)
				case !exempt && rec.Code != http.StatusUnauthorized:
					t.Errorf("%s: %d, want 401", what, rec.Code)
				case !exempt:
					wantError(rec, what, fragment)
				}
			}
			if rec := doKey(t, s, "alpha-key", rt.Method, path, "", nil); rec.Code == http.StatusUnauthorized {
				t.Errorf("%s %s with a tenant's key: 401", rt.Method, path)
			}
			// A method the path lacks is admitted before it is refused.
			if rec := doKey(t, s, "", "PUT", path, "", nil); rec.Code != http.StatusUnauthorized {
				t.Errorf("PUT %s without key: %d, want 401", path, rec.Code)
			}
			rec := doKey(t, s, "alpha-key", "PUT", path, "", nil)
			if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") == "" {
				t.Errorf("PUT %s with key: %d Allow=%q, want 405 with Allow", path, rec.Code, rec.Header().Get("Allow"))
			}
		}
		// An exemption is a method and a path: HEAD is not GET here.
		if rec := doKey(t, s, "", "HEAD", "/api/v1", "", nil); rec.Code != http.StatusUnauthorized {
			t.Errorf("HEAD /api/v1 without key: %d, want 401", rec.Code)
		}
		// An unknown versioned path is admitted before it is a 404.
		rec := doKey(t, s, "", "GET", "/api/v1/nosuch", "", nil)
		if rec.Code != http.StatusUnauthorized {
			t.Errorf("GET /api/v1/nosuch without key: %d, want 401", rec.Code)
		}
		wantError(rec, "GET /api/v1/nosuch without key", "missing API key")
		if rec := doKey(t, s, "alpha-key", "GET", "/api/v1/nosuch", "", nil); rec.Code != http.StatusNotFound {
			t.Errorf("GET /api/v1/nosuch with key: %d, want 404", rec.Code)
		}
		// The mux redirects a non-canonical path to its clean form before
		// any route runs; the clean path still needs the key.
		for _, path := range []string{"/api/v1//store", "/api/v1/../v1/store", "/api/v1/./store"} {
			rec := doKey(t, s, "", "GET", path, "", nil)
			if rec.Code != http.StatusMovedPermanently || rec.Header().Get("Location") != "/api/v1/store" {
				t.Errorf("GET %s without key: %d Location=%q, want 301 to /api/v1/store", path, rec.Code, rec.Header().Get("Location"))
			}
		}
		// The legacy Yum surface predates keys and stays anonymous.
		if rec := doKey(t, s, "", "GET", "/", "", nil); rec.Code != http.StatusOK {
			t.Errorf("GET / without key: %d, want 200 (legacy surface)", rec.Code)
		}
		// Open mode admits every route of the table.
		open := newTestServer(t)
		t.Cleanup(func() { open.Close() })
		for _, rt := range open.routes {
			path := fill.Replace(rt.Path)
			if rec := doKey(t, open, "", rt.Method, path, "", nil); rec.Code == http.StatusUnauthorized {
				t.Errorf("open mode: %s %s answered 401", rt.Method, path)
			}
		}
	})

	t.Run("quota", func(t *testing.T) {
		s, _ := newMTServer(t,
			TenantConfig{Name: "small", Key: "small-key",
				Quotas: Quotas{MaxDeployments: 1, MaxFleets: 1, MaxCampaigns: 1}},
			TenantConfig{Name: "big", Key: "big-key"},
		)
		creates := []struct {
			resource, path, body string
		}{
			{"deployments", "/api/v1/deployments", `{"cluster":"littlefe"}`},
			{"fleets", "/api/v1/fleets", `{"name":"q","members":2,"cluster":"littlefe","provision":false}`},
		}
		for _, c := range creates {
			if rec := doKey(t, s, "small-key", "POST", c.path, c.body, nil); rec.Code/100 != 2 {
				t.Fatalf("first %s create: %d %s", c.resource, rec.Code, rec.Body.String())
			}
			var qe quotaError
			rec := doKey(t, s, "small-key", "POST", c.path, c.body, &qe)
			if rec.Code != http.StatusForbidden {
				t.Fatalf("second %s create: %d, want 403", c.resource, rec.Code)
			}
			if qe.Code != "quota_exceeded" || qe.Resource != c.resource || qe.Limit != 1 || qe.InUse != 1 || qe.Err == "" {
				t.Errorf("%s quota body: %+v", c.resource, qe)
			}
			// The sibling tenant is not constrained by small's quota.
			if rec := doKey(t, s, "big-key", "POST", c.path, c.body, nil); rec.Code/100 != 2 {
				t.Errorf("big tenant %s create hit small's quota: %d", c.resource, rec.Code)
			}
		}
	})

	t.Run("rate-limit", func(t *testing.T) {
		s, now := newMTServer(t,
			TenantConfig{Name: "slow", Key: "slow-key", RateLimit: 1, Burst: 2},
			TenantConfig{Name: "free", Key: "free-key"},
		)
		for i := 0; i < 2; i++ {
			if rec := doKey(t, s, "slow-key", "GET", "/api/v1/fleets", "", nil); rec.Code != http.StatusOK {
				t.Fatalf("burst request %d: %d", i, rec.Code)
			}
		}
		var rle rateLimitError
		rec := doKey(t, s, "slow-key", "GET", "/api/v1/fleets", "", &rle)
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("over-budget request: %d, want 429", rec.Code)
		}
		if ra := rec.Header().Get("Retry-After"); ra != "1" {
			t.Errorf("Retry-After = %q, want \"1\" (1 token at 1 req/s)", ra)
		}
		if rle.Code != "rate_limited" || rle.Err == "" || rle.RetryAfter == "" {
			t.Errorf("429 body: %+v", rle)
		}
		// An unlimited sibling is unaffected; time refills the bucket.
		if rec := doKey(t, s, "free-key", "GET", "/api/v1/fleets", "", nil); rec.Code != http.StatusOK {
			t.Errorf("free tenant rate-limited: %d", rec.Code)
		}
		*now = now.Add(2 * time.Second)
		if rec := doKey(t, s, "slow-key", "GET", "/api/v1/fleets", "", nil); rec.Code != http.StatusOK {
			t.Errorf("after refill: %d, want 200", rec.Code)
		}
	})

	t.Run("pagination-400", func(t *testing.T) {
		s, _ := newMTServer(t, twoTenants()...)
		doKey(t, s, "alpha-key", "POST", "/api/v1/fleets",
			`{"name":"p","members":2,"cluster":"littlefe","provision":false}`, nil)
		paths := []string{
			"/api/v1/deployments",
			"/api/v1/fleets",
			"/api/v1/clusters",
			"/api/v1/campaigns",
			"/api/v1/scenarios",
			"/api/v1/fleets/f1/scenarios",
		}
		bad := []string{"cursor=-1", "cursor=x", "limit=0", "limit=1001", "limit=x"}
		for _, path := range paths {
			for _, q := range bad {
				rec := doKey(t, s, "alpha-key", "GET", path+"?"+q, "", nil)
				if rec.Code != http.StatusBadRequest {
					t.Errorf("GET %s?%s: %d, want 400", path, q, rec.Code)
					continue
				}
				var e struct {
					Error string `json:"error"`
				}
				if json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error == "" {
					t.Errorf("GET %s?%s: 400 body lost the error envelope: %s", path, q, rec.Body.String())
				}
			}
			// The happy path still answers with the pagination fields.
			var env map[string]any
			if rec := doKey(t, s, "alpha-key", "GET", path+"?limit=1", "", &env); rec.Code != http.StatusOK {
				t.Errorf("GET %s?limit=1: %d", path, rec.Code)
			} else if _, ok := env["next_cursor"]; !ok {
				t.Errorf("GET %s: envelope missing next_cursor: %v", path, env)
			}
		}
	})
}

// TestCampaignQuotaCountsRunning: with max_campaigns 1, a second campaign
// is refused with the typed 403 while c1 runs, a sibling tenant's is not,
// and one is admitted once c1 has settled, the 403 then counting the one
// running. A check hook holds each campaign's runs while the test holds
// hold.
func TestCampaignQuotaCountsRunning(t *testing.T) {
	var hold sync.RWMutex
	hook := func(*xcbc.Scenario, *xcbc.ScenarioResult) []string {
		hold.RLock()
		defer hold.RUnlock()
		return nil
	}
	s := New(Config{CampaignHook: hook, Tenants: []TenantConfig{
		{Name: "small", Key: "small-key", Quotas: Quotas{MaxCampaigns: 1}},
		{Name: "big", Key: "big-key"},
	}})
	t.Cleanup(func() { s.Close() })
	held := true
	hold.Lock()
	t.Cleanup(func() { // before Close, which waits for the campaigns
		if held {
			hold.Unlock()
		}
	})
	post := func(key string, want int) {
		t.Helper()
		var qe quotaError
		rec := doKey(t, s, key, "POST", "/api/v1/campaigns", `{"seeds":1,"workers":1}`, &qe)
		if rec.Code != want {
			t.Fatalf("POST /api/v1/campaigns as %s: %d %s, want %d", key, rec.Code, rec.Body.String(), want)
		}
		if want == http.StatusForbidden && (qe.Code != "quota_exceeded" || qe.Resource != "campaigns" || qe.Limit != 1 || qe.InUse != 1 || qe.Err == "") {
			t.Errorf("campaigns quota body: %+v", qe)
		}
	}
	post("small-key", http.StatusAccepted)
	post("small-key", http.StatusForbidden)
	post("big-key", http.StatusAccepted)
	post("big-key", http.StatusAccepted)

	hold.Unlock()
	held = false
	for _, key := range []string{"small-key", "big-key"} {
		if c := awaitSettled[campaignInfo](t, s, key, "/api/v1/campaigns/c1"); c.State != "passed" {
			t.Fatalf("%s's c1 settled %q: %s", key, c.State, c.Error)
		}
	}
	hold.Lock()
	held = true
	post("small-key", http.StatusAccepted)
	post("small-key", http.StatusForbidden)
}

// TestCrossTenantIsolation hammers two tenants concurrently (create,
// list, get, delete) and asserts the shards never bleed: a tenant's
// listings only ever show its own resources, and another tenant's IDs
// answer 404 on GET and DELETE. Run under -race this also proves the
// shard locking.
func TestCrossTenantIsolation(t *testing.T) {
	s, _ := newMTServer(t, twoTenants()...)
	tenants := []struct{ key, name string }{
		{"alpha-key", "alpha"},
		{"beta-key", "beta"},
	}
	const rounds = 20
	var wg sync.WaitGroup
	for _, tn := range tenants {
		wg.Add(1)
		go func(key, name string) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				body := fmt.Sprintf(`{"name":"%s-%d","members":2,"cluster":"littlefe","provision":false}`, name, i)
				var created struct {
					ID string `json:"id"`
				}
				if rec := doKey(t, s, key, "POST", "/api/v1/fleets", body, &created); rec.Code != http.StatusAccepted {
					t.Errorf("%s create %d: %d", name, i, rec.Code)
					return
				}
				var list struct {
					Fleets []struct {
						Name string `json:"name"`
					} `json:"fleets"`
				}
				doKey(t, s, key, "GET", "/api/v1/fleets?limit=1000", "", &list)
				for _, f := range list.Fleets {
					if !strings.HasPrefix(f.Name, name+"-") {
						t.Errorf("%s listing leaked foreign fleet %q", name, f.Name)
						return
					}
				}
				if i%3 == 0 {
					doKey(t, s, key, "DELETE", "/api/v1/fleets/"+created.ID, "", nil)
				}
			}
		}(tn.key, tn.name)
	}
	wg.Wait()

	// Alpha creates a fleet beta has never created (IDs are per-tenant
	// sequences, so pick one beyond beta's range).
	var probe struct {
		ID string `json:"id"`
	}
	doKey(t, s, "alpha-key", "POST", "/api/v1/fleets",
		`{"name":"alpha-probe","members":2,"cluster":"littlefe","provision":false}`, &probe)
	var got struct {
		Name string `json:"name"`
	}
	if rec := doKey(t, s, "alpha-key", "GET", "/api/v1/fleets/"+probe.ID, "", &got); rec.Code != http.StatusOK || got.Name != "alpha-probe" {
		t.Fatalf("owner GET %s: %d %q", probe.ID, rec.Code, got.Name)
	}
	// Beta sees alpha's ID as its own shard's namespace: either 404, or a
	// beta-owned fleet — never alpha's.
	var foreign struct {
		Name string `json:"name"`
	}
	rec := doKey(t, s, "beta-key", "GET", "/api/v1/fleets/"+probe.ID, "", nil)
	if rec.Code == http.StatusOK {
		_ = json.Unmarshal(rec.Body.Bytes(), &foreign)
		if foreign.Name == "alpha-probe" {
			t.Fatalf("beta read alpha's fleet %s", probe.ID)
		}
	}
	// A DELETE through the wrong tenant must not remove alpha's fleet.
	doKey(t, s, "beta-key", "DELETE", "/api/v1/fleets/"+probe.ID, "", nil)
	if rec := doKey(t, s, "alpha-key", "GET", "/api/v1/fleets/"+probe.ID, "", nil); rec.Code != http.StatusOK {
		t.Fatalf("alpha's fleet gone after beta's DELETE: %d", rec.Code)
	}
}

// TestTenantDurability proves the per-tenant store seam: each named
// tenant journals under DataDir/tenants/<name>, and a restart recovers
// every shard with tenancy intact.
func TestTenantDurability(t *testing.T) {
	dir := t.TempDir()
	cfg := func(c *Config) { c.Tenants = twoTenants() }

	s1, _ := openDurable(t, dir, cfg)
	if rec := doKey(t, s1, "alpha-key", "POST", "/api/v1/fleets",
		`{"name":"alpha-f","members":2,"cluster":"littlefe","provision":false}`, nil); rec.Code != http.StatusAccepted {
		t.Fatalf("alpha create: %d", rec.Code)
	}
	if rec := doKey(t, s1, "beta-key", "POST", "/api/v1/deployments",
		`{"cluster":"littlefe"}`, nil); rec.Code != http.StatusAccepted {
		t.Fatalf("beta create: %d", rec.Code)
	}
	awaitSettled[deploymentInfo](t, s1, "beta-key", "/api/v1/deployments/d1")
	s1.Close()

	for _, name := range []string{"alpha", "beta"} {
		if _, err := os.Stat(filepath.Join(dir, "tenants", name)); err != nil {
			t.Errorf("tenant %s has no journal directory: %v", name, err)
		}
	}

	s2, rep := openDurable(t, dir, cfg)
	defer s2.Close()
	if rep.Fleets != 1 || rep.Deployments != 1 {
		t.Fatalf("merged recovery report: %+v, want 1 fleet + 1 deployment", rep)
	}
	var fl struct {
		Fleets []struct {
			Name string `json:"name"`
		} `json:"fleets"`
	}
	doKey(t, s2, "alpha-key", "GET", "/api/v1/fleets", "", &fl)
	if len(fl.Fleets) != 1 || fl.Fleets[0].Name != "alpha-f" {
		t.Fatalf("alpha recovered fleets: %+v", fl)
	}
	var dl struct {
		Deployments []json.RawMessage `json:"deployments"`
	}
	doKey(t, s2, "beta-key", "GET", "/api/v1/deployments", "", &dl)
	if len(dl.Deployments) != 1 {
		t.Fatalf("beta recovered %d deployments, want 1", len(dl.Deployments))
	}
	// The shards did not bleed across the restart.
	doKey(t, s2, "beta-key", "GET", "/api/v1/fleets", "", &fl)
	if len(fl.Fleets) != 0 {
		t.Fatalf("beta recovered alpha's fleets: %+v", fl)
	}
	doKey(t, s2, "alpha-key", "GET", "/api/v1/deployments", "", &dl)
	if len(dl.Deployments) != 0 {
		t.Fatalf("alpha recovered beta's deployments: %+v", dl)
	}
}

// TestCrashRestartSeedsTenants is the tenancy extension of
// TestCrashRestartSeeds: seeded create/crash/recover cycles where every
// cycle runs two tenants, each crashed at a record the seed chooses in its
// own log, and recovery must restore each shard's resources to its own
// tenant, reconciling exactly the builds the crash cut off.
func TestCrashRestartSeedsTenants(t *testing.T) {
	seeds := 4
	if testing.Short() {
		seeds = 2
	}
	keys := []string{"alpha-key", "beta-key"}
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			cfg := func(c *Config) {
				c.Tenants = twoTenants()
				c.SnapshotEvery = 2 + seed
			}
			perTenant := 1 + seed%2
			s1, _ := openDurable(t, dir, cfg)
			logs := make([]*crashLog, len(s1.tenants))
			for i, tn := range s1.tenants {
				logs[i] = logCrashes(t, tn.store, filepath.Join(dir, "tenants", tn.name))
			}
			for i := 0; i < perTenant; i++ {
				for _, key := range keys {
					body := fmt.Sprintf(`{"cluster":"littlefe","parallelism":%d}`, 1+seed%4)
					if rec := doKey(t, s1, key, "POST", "/api/v1/deployments", body, nil); rec.Code != 202 {
						t.Fatalf("create: %d", rec.Code)
					}
				}
			}
			for i := 1; i <= perTenant; i++ {
				for _, key := range keys {
					awaitSettled[deploymentInfo](t, s1, key, fmt.Sprintf("/api/v1/deployments/d%d", i))
				}
			}
			s1.Close()
			image, cut := t.TempDir(), 0
			for i, tn := range s1.tenants {
				tenantImage, settledAfter := logs[i].crashAt(seed)
				if err := os.CopyFS(filepath.Join(image, "tenants", tn.name), os.DirFS(tenantImage)); err != nil {
					t.Fatal(err)
				}
				cut += settledAfter
			}

			s2, rep := openDurable(t, image, cfg)
			if rep.Deployments != perTenant*2 || rep.Interrupted != cut || rep.Rebuilt != perTenant*2-cut {
				t.Fatalf("recovery = %+v, want %d deployments, %d of them interrupted", rep, perTenant*2, cut)
			}
			for _, key := range keys {
				var list struct {
					Deployments []json.RawMessage `json:"deployments"`
					Count       int               `json:"count"`
				}
				if rec := doKey(t, s2, key, "GET", "/api/v1/deployments", "", &list); rec.Code != 200 {
					t.Fatalf("list after recovery: %d", rec.Code)
				}
				if list.Count != perTenant {
					t.Fatalf("tenant %s recovered %d deployments, want %d", key, list.Count, perTenant)
				}
			}
			s2.Close()
		})
	}
}

// TestDiscoveryGolden pins the discovery document byte for byte, so any
// drift in the route table or the advertised auth/pagination contract
// shows up as a reviewed diff (regenerate with go test -run
// TestDiscoveryGolden -update ./pkg/xcbc/api/).
func TestDiscoveryGolden(t *testing.T) {
	golden := filepath.Join("testdata", "discovery.golden")
	check := func(t *testing.T, name string, s *Server) {
		rec := do(t, s, "GET", "/api/v1", "", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /api/v1: %d", rec.Code)
		}
		var pretty json.RawMessage = rec.Body.Bytes()
		out, err := json.MarshalIndent(pretty, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, '\n')
		path := golden
		if name != "" {
			path = strings.TrimSuffix(golden, ".golden") + "-" + name + ".golden"
		}
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, out, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		if string(want) != string(out) {
			t.Errorf("discovery document drifted from %s:\n got: %s\nwant: %s\n(run with -update if the change is intended)", path, out, want)
		}
	}
	t.Run("open", func(t *testing.T) { check(t, "", newTestServer(t)) })
	t.Run("multi-tenant", func(t *testing.T) {
		s, _ := newMTServer(t, twoTenants()...)
		check(t, "mt", s)
	})
}

// TestDiscoveryAdvertisesContracts spot-checks the semantic content the
// golden file pins syntactically.
func TestDiscoveryAdvertisesContracts(t *testing.T) {
	s, _ := newMTServer(t, twoTenants()...)
	var doc struct {
		Auth struct {
			Mode   string   `json:"mode"`
			Header string   `json:"header"`
			Exempt []string `json:"exempt"`
		} `json:"auth"`
		Pagination struct {
			Params       string `json:"params"`
			DefaultLimit int    `json:"default_limit"`
			MaxLimit     int    `json:"max_limit"`
		} `json:"pagination"`
	}
	doKey(t, s, "", "GET", "/api/v1", "", &doc)
	if doc.Auth.Mode != "api-key" || !strings.Contains(doc.Auth.Header, "Bearer") || len(doc.Auth.Exempt) != 2 {
		t.Errorf("auth contract: %+v", doc.Auth)
	}
	if doc.Pagination.DefaultLimit != defaultPageLimit || doc.Pagination.MaxLimit != maxPageLimit || doc.Pagination.Params == "" {
		t.Errorf("pagination contract: %+v", doc.Pagination)
	}
	open := newTestServer(t)
	doKey(t, open, "", "GET", "/api/v1", "", &doc)
	if doc.Auth.Mode != "open" {
		t.Errorf("open-mode auth mode = %q", doc.Auth.Mode)
	}
}

// tenantRefusals are the tenant configs buildTenants refuses, one row per
// rule, with what its error says.
var tenantRefusals = []struct {
	name string
	cfgs []TenantConfig
	want string
}{
	{"bad name", []TenantConfig{{Name: "Alpha", Key: "k"}}, "bad tenant name"},
	{"long name", []TenantConfig{{Name: strings.Repeat("a", 65), Key: "k"}}, "bad tenant name"},
	{"duplicate name", []TenantConfig{{Name: "a", Key: "k1"}, {Name: "a", Key: "k2"}}, "duplicate tenant name"},
	{"empty key", []TenantConfig{{Name: "a"}}, "empty API key"},
	{"reused key", []TenantConfig{{Name: "a", Key: "k"}, {Name: "b", Key: "k"}}, "reuses another tenant's API key"},
	{"negative rate", []TenantConfig{{Name: "a", Key: "k", RateLimit: -1}}, "negative rate limit or burst"},
	{"negative burst", []TenantConfig{{Name: "a", Key: "k", RateLimit: 1, Burst: -1}}, "negative rate limit or burst"},
	{"negative quota", []TenantConfig{{Name: "a", Key: "k", Quotas: Quotas{MaxFleets: -1}}}, "negative quota"},
}

// TestTenantConfigRefused holds buildTenants to each refusal: a config
// that breaks one rule builds no tenants and says which rule.
func TestTenantConfigRefused(t *testing.T) {
	for _, tc := range tenantRefusals {
		tenants, open, err := buildTenants(tc.cfgs)
		if err == nil || !strings.Contains(err.Error(), tc.want) || tenants != nil || open != nil {
			t.Errorf("%s: buildTenants = %d tenants, open %v, err %v; want refused with %q", tc.name, len(tenants), open != nil, err, tc.want)
		}
	}
}

// FuzzTenantConfig feeds arbitrary bytes through json.Unmarshal into
// []TenantConfig, then buildTenants — the checks under repo-server -tenants,
// which also refuses an unknown field or a file naming no tenant — which
// must never panic, and whatever config it accepts has valid, distinct
// names, distinct non-empty keys and no negative field. The seeds are a
// valid two-tenant file and every refusal.
func FuzzTenantConfig(f *testing.F) {
	valid, err := json.Marshal([]TenantConfig{
		{Name: "alpha", Key: "alpha-key", Quotas: Quotas{MaxDeployments: 4, MaxFleets: 1}, RateLimit: 2.5, Burst: 3},
		{Name: "beta_2", Key: "beta-key"},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, tc := range tenantRefusals {
		data, err := json.Marshal(tc.cfgs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	name := regexp.MustCompile(`^[a-z0-9_-]{1,64}$`)
	f.Fuzz(func(t *testing.T, data []byte) {
		var cfgs []TenantConfig
		if json.Unmarshal(data, &cfgs) != nil {
			return
		}
		tenants, open, err := buildTenants(cfgs)
		if err != nil {
			return
		}
		if len(cfgs) == 0 {
			if len(tenants) != 1 || open == nil {
				t.Fatalf("an empty config built %d tenants, open %v; want the open tenant alone", len(tenants), open != nil)
			}
			return
		}
		if len(tenants) != len(cfgs) || open != nil {
			t.Fatalf("%d configs built %d tenants, open %v", len(cfgs), len(tenants), open != nil)
		}
		names, keys := map[string]bool{}, map[string]bool{}
		for _, c := range cfgs {
			q := c.Quotas
			switch {
			case !name.MatchString(c.Name) || names[c.Name]:
				t.Fatalf("accepted a bad or repeated name %q", c.Name)
			case c.Key == "" || keys[c.Key]:
				t.Fatalf("tenant %q: accepted an empty or repeated key", c.Name)
			case c.RateLimit < 0 || c.Burst < 0 || q.MaxDeployments < 0 || q.MaxFleets < 0 || q.MaxCampaigns < 0:
				t.Fatalf("tenant %q: accepted a negative field: %+v", c.Name, c)
			}
			names[c.Name], keys[c.Key] = true, true
		}
	})
}
