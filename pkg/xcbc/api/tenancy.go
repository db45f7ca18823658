package api

// Multi-tenancy: the server's resource registries (deployments, fleets,
// campaigns) and the durable store seam are sharded per tenant. A tenant
// is resolved from the request's API key by the admission middleware and
// carried through the request context; every handler operates on the
// resolved tenant's shard only, so cross-tenant reads are structurally
// impossible rather than filtered.
//
// Admission is opt-in. A Config with no Tenants runs in "open mode": a
// single anonymous tenant, no keys, no rate limits, no quotas — exactly
// the single-registry behavior the server always had, including the
// on-disk layout (the open tenant journals at the DataDir root). A Config
// with Tenants requires a key on every /api/v1 request except the
// discovery document and the health probe; each named tenant journals
// under DataDir/tenants/<name>.
//
// Admission order is authenticate (401), then rate-limit (429 with
// Retry-After), then quota at resource creation (403 with a typed quota
// error). Key lookup hashes the presented key and compares it against
// every configured tenant with crypto/subtle, so match time does not
// depend on where (or whether) the key matches.

import (
	"context"
	"crypto/sha256"
	"crypto/subtle"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// Quotas bounds how many live resources of each kind a tenant may hold.
// A zero field means unlimited.
type Quotas struct {
	MaxDeployments int `json:"max_deployments,omitempty"`
	MaxFleets      int `json:"max_fleets,omitempty"`
	MaxCampaigns   int `json:"max_campaigns,omitempty"`
}

// TenantConfig declares one tenant of the control plane.
type TenantConfig struct {
	// Name identifies the tenant in logs and on disk (the tenant's WAL
	// lives under DataDir/tenants/<name>); lowercase letters, digits,
	// '-' and '_', at most 64 characters.
	Name string `json:"name"`
	// Key is the tenant's API key, presented as "Authorization: Bearer
	// <key>" or "X-API-Key: <key>". Only its SHA-256 is retained.
	Key string `json:"key"`
	// Quotas caps the tenant's live resources; zero fields are unlimited.
	Quotas Quotas `json:"quotas"`
	// RateLimit is the tenant's sustained request budget in requests per
	// second; 0 means unlimited.
	RateLimit float64 `json:"rate_limit"`
	// Burst is the token-bucket depth; 0 defaults to ceil(RateLimit),
	// at least 1.
	Burst int `json:"burst"`
}

// tenant is one shard of the control plane: its own resource registries
// (each with its ID sequence, quota and lock), admission state, and (on a
// durable server) its own store.
type tenant struct {
	name    string
	keyHash [sha256.Size]byte
	limiter *tokenBucket // nil = unlimited
	store   *store       // nil on a memory-only server

	deployments *registry[*deployment]
	fleets      *registry[*fleetRecord]
	campaigns   *registry[*campaignRecord]
}

func newTenant(name string, q Quotas) *tenant {
	return &tenant{
		name:        name,
		deployments: newRegistry[*deployment]("d", "deployments", q.MaxDeployments),
		fleets:      newRegistry[*fleetRecord]("f", "fleets", q.MaxFleets),
		campaigns:   newRegistry[*campaignRecord]("c", "campaigns", q.MaxCampaigns),
	}
}

// validTenantName reports whether name is usable as a log label and a
// data-directory segment.
func validTenantName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

// buildTenants validates cfg.Tenants and constructs the tenant shards,
// sorted by name. An empty config yields the single open tenant.
func buildTenants(cfgs []TenantConfig) ([]*tenant, *tenant, error) {
	if len(cfgs) == 0 {
		open := newTenant("", Quotas{})
		return []*tenant{open}, open, nil
	}
	names := make(map[string]bool, len(cfgs))
	keys := make(map[[sha256.Size]byte]bool, len(cfgs))
	tenants := make([]*tenant, 0, len(cfgs))
	for _, c := range cfgs {
		if !validTenantName(c.Name) {
			return nil, nil, fmt.Errorf("api: bad tenant name %q (lowercase letters, digits, '-', '_', max 64 chars)", c.Name)
		}
		if names[c.Name] {
			return nil, nil, fmt.Errorf("api: duplicate tenant name %q", c.Name)
		}
		names[c.Name] = true
		if c.Key == "" {
			return nil, nil, fmt.Errorf("api: tenant %q has an empty API key", c.Name)
		}
		sum := sha256.Sum256([]byte(c.Key))
		if keys[sum] {
			return nil, nil, fmt.Errorf("api: tenant %q reuses another tenant's API key", c.Name)
		}
		keys[sum] = true
		if c.RateLimit < 0 || c.Burst < 0 {
			return nil, nil, fmt.Errorf("api: tenant %q has a negative rate limit or burst", c.Name)
		}
		tn := newTenant(c.Name, c.Quotas)
		tn.keyHash = sum
		if c.RateLimit > 0 {
			burst := c.Burst
			if burst <= 0 {
				burst = int(math.Ceil(c.RateLimit))
			}
			tn.limiter = newTokenBucket(c.RateLimit, burst)
		}
		tenants = append(tenants, tn)
	}
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].name < tenants[j].name })
	return tenants, nil, nil
}

// tenantKey carries the resolved tenant through the request context.
type tenantKey struct{}

// tenant returns the shard the admission middleware resolved for this
// request. Handlers are only reachable through the middleware, so the
// open-tenant fallback exists for direct handler invocation in tests.
func (s *Server) tenant(r *http.Request) *tenant {
	if tn, ok := r.Context().Value(tenantKey{}).(*tenant); ok {
		return tn
	}
	return s.openTenant
}

// requestKey extracts the presented API key: "Authorization: Bearer
// <key>" preferred, "X-API-Key: <key>" accepted.
func requestKey(r *http.Request) string {
	if auth := r.Header.Get("Authorization"); auth != "" {
		if key, ok := strings.CutPrefix(auth, "Bearer "); ok {
			return strings.TrimSpace(key)
		}
		return ""
	}
	return strings.TrimSpace(r.Header.Get("X-API-Key"))
}

// resolveTenant maps the request's key to a tenant. The comparison visits
// every tenant whether or not an earlier one matched, so timing does not
// reveal key prefixes or which tenant (if any) the key belongs to.
func (s *Server) resolveTenant(r *http.Request) (*tenant, bool) {
	key := requestKey(r)
	if key == "" {
		return nil, false
	}
	sum := sha256.Sum256([]byte(key))
	var found *tenant
	for _, tn := range s.tenants {
		if subtle.ConstantTimeCompare(sum[:], tn.keyHash[:]) == 1 {
			found = tn
		}
	}
	return found, found != nil
}

// admitExempt lists the versioned routes that answer without a key even
// in multi-tenant mode, so clients can bootstrap (discover the auth
// contract) and probes can check liveness.
var admitExempt = []string{"GET /api/" + Version, "GET /api/" + Version + "/healthz"}

// admit is the admission middleware: resolve the tenant (401), charge its
// token bucket (429 + Retry-After), and stash the tenant in the request
// context for the handlers. The legacy Yum surface predates API keys and
// stays anonymous; in open mode every request maps to the open tenant.
func (s *Server) admit(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.openTenant != nil || !strings.HasPrefix(r.URL.Path, "/api/") {
			next.ServeHTTP(w, r)
			return
		}
		tn, ok := s.resolveTenant(r)
		if !ok {
			if slices.Contains(admitExempt, r.Method+" "+r.URL.Path) {
				next.ServeHTTP(w, r)
				return
			}
			msg := "unknown API key"
			if requestKey(r) == "" {
				msg = "missing API key: send Authorization: Bearer <key> (or X-API-Key)"
			}
			writeError(w, http.StatusUnauthorized, msg)
			return
		}
		if tn.limiter != nil {
			if allowed, wait := tn.limiter.take(s.clock()); !allowed {
				secs := int(math.Ceil(wait.Seconds()))
				if secs < 1 {
					secs = 1
				}
				w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
				writeJSON(w, http.StatusTooManyRequests, rateLimitError{
					Err:        "rate limit exceeded for tenant " + tn.name,
					Code:       "rate_limited",
					RetryAfter: wait.Round(time.Millisecond).String(),
				})
				return
			}
		}
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), tenantKey{}, tn)))
	})
}

// rateLimitError is the 429 body; Err keeps the standard error envelope.
type rateLimitError struct {
	Err        string `json:"error"`
	Code       string `json:"code"`
	RetryAfter string `json:"retry_after"`
}

// quotaError is the 403 body for an exhausted resource quota (built by
// registry.insert); Err keeps the standard error envelope, the typed
// fields let clients react programmatically.
type quotaError struct {
	Err      string `json:"error"`
	Code     string `json:"code"`
	Resource string `json:"resource"`
	Limit    int    `json:"limit"`
	InUse    int    `json:"in_use"`
}

// tokenBucket is a clock-driven token bucket. It is fed the server clock
// on every take, so tests with a fixed clock see fully deterministic
// admission decisions.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rate float64, burst int) *tokenBucket {
	return &tokenBucket{rate: rate, burst: float64(burst), tokens: float64(burst)}
}

// take spends one token if available; otherwise it reports how long until
// one accrues.
func (b *tokenBucket) take(now time.Time) (bool, time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.last.IsZero() {
		b.last = now
	}
	if now.After(b.last) {
		b.tokens = min(b.burst, b.tokens+now.Sub(b.last).Seconds()*b.rate)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
	return false, wait
}
