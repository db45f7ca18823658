package api

// Multi-tenancy: the server's resources (deployments, fleets, campaigns),
// indexed by the mirror of the store that journals them, are sharded per
// tenant. Each versioned route's dispatcher admits the request, resolving
// its tenant from the API key, and hands the handler that tenant's store;
// a handler sees no other shard, so cross-tenant reads are structurally
// impossible rather than filtered.
//
// Admission is opt-in. A Config with no Tenants runs in "open mode": a
// single anonymous tenant, no keys, no rate limits, no quotas — exactly
// the single-shard behavior the server always had, including the
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

// Quotas bounds how many resources of each kind a tenant may hold: live
// deployments and fleets, which a delete frees, and running campaigns, which
// settling frees. A zero field means unlimited.
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
	// Quotas caps the tenant's resources; zero fields are unlimited.
	Quotas Quotas `json:"quotas"`
	// RateLimit is the tenant's sustained request budget in requests per
	// second; 0 means unlimited.
	RateLimit float64 `json:"rate_limit"`
	// Burst is the token-bucket depth; 0 defaults to ceil(RateLimit),
	// at least 1.
	Burst int `json:"burst"`
}

// tenant is one shard of the control plane: its admission state, its
// quotas, and its own store, whose mirror indexes its resources, set once
// when the server is constructed.
type tenant struct {
	name    string
	keyHash [sha256.Size]byte
	limiter *tokenBucket // nil = unlimited
	quotas  Quotas
	store   *store
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
		open := &tenant{}
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
		if q := c.Quotas; q.MaxDeployments < 0 || q.MaxFleets < 0 || q.MaxCampaigns < 0 {
			return nil, nil, fmt.Errorf("api: tenant %q has a negative quota", c.Name)
		}
		tn := &tenant{name: c.Name, keyHash: sum, quotas: c.Quotas}
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

// admit is the first step of every versioned route (see byMethod): resolve
// the tenant (401), then charge its token bucket (429 + Retry-After). It
// reports false once it has answered. In open mode every request is the
// open tenant's; an exempt route asked without a valid key has no tenant.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (*tenant, bool) {
	if s.openTenant != nil {
		return s.openTenant, true
	}
	tn, ok := s.resolveTenant(r)
	if !ok {
		if slices.Contains(admitExempt, r.Method+" "+r.URL.Path) {
			return nil, true
		}
		msg := "unknown API key"
		if requestKey(r) == "" {
			msg = "missing API key: send Authorization: Bearer <key> (or X-API-Key)"
		}
		writeError(w, http.StatusUnauthorized, msg)
		return nil, false
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
			return nil, false
		}
	}
	return tn, true
}

// rateLimitError is the 429 body; Err keeps the standard error envelope.
type rateLimitError struct {
	Err        string `json:"error"`
	Code       string `json:"code"`
	RetryAfter string `json:"retry_after"`
}

// quotaError is the 403 body for an exhausted resource quota (built by
// nextID); Err keeps the standard error envelope, the typed fields let
// clients react programmatically.
type quotaError struct {
	Err      string `json:"error"`
	Code     string `json:"code"`
	Resource string `json:"resource"`
	Limit    int    `json:"limit"`
	InUse    int    `json:"in_use"`
}

func (e *quotaError) Error() string { return e.Err }

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
