// Package api serves the xcbc SDK as a versioned JSON REST control plane
// plus the legacy Yum-over-HTTP routes the XSEDE Campus Bridging team
// served at cb-repo.iu.xsede.org.
//
// Versioned routes (see DESIGN.md for the versioning policy; GET /api/v1
// returns this listing as a machine-readable discovery document, so
// clients can feature-detect the cluster routes):
//
//	GET    /api/v1                          — route/version discovery
//	GET    /api/v1/store                    — durability status (data dir, WAL size, snapshot age)
//	GET    /api/v1/healthz
//	GET    /api/v1/repos
//	GET    /api/v1/repos/{id}
//	GET    /api/v1/repos/{id}/packages[?name=...]
//	POST   /api/v1/depsolve
//	GET    /api/v1/deployments
//	POST   /api/v1/deployments              — 202 Accepted, build runs async
//	GET    /api/v1/deployments/{id}[?cursor=N]
//	GET    /api/v1/deployments/{id}/events  — Server-Sent Events stream
//	DELETE /api/v1/deployments/{id}         — cancels an in-flight build
//	GET    /api/v1/clusters                 — day-2 view of the same records
//	GET    /api/v1/clusters/{id}
//	POST   /api/v1/clusters/{id}/jobs
//	GET    /api/v1/clusters/{id}/jobs[?state=...]
//	GET    /api/v1/clusters/{id}/jobs/{jid}
//	DELETE /api/v1/clusters/{id}/jobs/{jid}
//	GET    /api/v1/clusters/{id}/metrics
//	GET    /api/v1/clusters/{id}/alerts
//	POST   /api/v1/clusters/{id}/validate
//	GET    /api/v1/clusters/{id}/updates[?policy=...]
//	POST   /api/v1/clusters/{id}/advance
//	GET    /api/v1/campaigns                — list generative chaos campaigns
//	POST   /api/v1/campaigns                — 202 Accepted, sweep runs async
//	GET    /api/v1/campaigns/{id}           — progress + failures with shrunk repros
//
// Deployments are asynchronous jobs: POST validates the request, starts the
// build on the SDK's worker pool, and returns immediately with the
// deployment in state "building" (or "pending" when the pool is saturated).
// Clients poll GET with the journal cursor from the previous response, or
// attach to /events for a push stream; DELETE cancels an in-flight build
// (the record stays for status inspection) and removes a terminal one.
//
// Clusters are the day-2 view of the same records: once a deployment
// reaches "ready", its /clusters/{id} sub-routes operate the live system —
// batch jobs, monitoring with alerts, HPL validation, update checks, and
// virtual-time advancement. A sub-route hit before the build settles
// answers 409 Conflict with the current state, so clients know to wait
// rather than retry a different request.
//
// Legacy Yum routes, preserved verbatim:
//
//	GET /                                  — readme.xsederepo
//	GET /{repo}/repodata/repomd.json       — repository metadata
//	GET /{repo}/packages/{nevra}.rpm       — package record
package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"maps"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"xcbc/internal/depsolve"
	"xcbc/internal/repo"
	"xcbc/internal/rpm"
	"xcbc/pkg/xcbc"
)

// Version is the current API version segment.
const Version = "v1"

// Config configures a Server.
type Config struct {
	// Repos are the repositories to serve, both through /api/v1 and the
	// legacy Yum routes, all at the XNIT-recommended priority. For
	// per-repository priorities (vendor below XNIT, as
	// yum-plugin-priorities intends) use RepoConfigs instead.
	Repos []*repo.Repository
	// RepoConfigs are served with their configured priority and enabled
	// flag, in addition to anything in Repos.
	RepoConfigs []repo.Config
	// Clock supplies metadata timestamps; nil means time.Now.
	Clock func() time.Time
	// Logger receives one line per request; nil disables request logging.
	Logger *log.Logger
	// DeployOptions are prepended to every deployment build the server
	// starts: operator defaults such as xcbc.WithParallelism, and the
	// fault-injection seam (xcbc.WithInstallHook) for tests.
	DeployOptions []xcbc.Option
	// DataDir enables durability when set: the server journals every
	// resource mutation to a write-ahead log under this directory and
	// snapshots its state periodically, so a server reopened on the same
	// directory recovers its deployments, fleets, and scenario runs.
	// Durable servers must be constructed with Open (recovery can fail);
	// New panics on a Config with DataDir set.
	DataDir string
	// SnapshotEvery is how many WAL records may accumulate before the
	// store snapshots server state and truncates the log; <= 0 selects
	// DefaultSnapshotEvery.
	SnapshotEvery int
	// ResumeInterrupted restarts deployments the log shows mid-build at
	// recovery, instead of archiving them as failed (interrupted).
	ResumeInterrupted bool
	// CampaignHook, when set, contributes extra violations to every run a
	// campaign on this server checks — the deterministic fault-injection
	// seam campaign tests use to plant invariant bugs.
	CampaignHook xcbc.CampaignCheckHook
	// Tenants switches the server into multi-tenant mode: every /api/v1
	// request (except discovery and health) must present one of these
	// tenants' API keys, and each tenant gets its own resource registries,
	// rate limit, quotas, and — on a durable server — its own WAL under
	// DataDir/tenants/<name>. Empty means open mode: one anonymous tenant,
	// no admission control, the pre-tenancy behavior and disk layout.
	Tenants []TenantConfig
}

// routeInfo describes one versioned route, for both mux registration and
// the GET /api/v1 discovery document.
type routeInfo struct {
	Method  string `json:"method"`
	Path    string `json:"path"`
	Doc     string `json:"doc"`
	handler http.HandlerFunc
}

// Server is the HTTP control plane. Create with New, serve via Handler
// (for tests and embedding) or Serve (timeouts + graceful shutdown
// included).
type Server struct {
	set        *repo.Set
	clock      func() time.Time
	logger     *log.Logger
	handler    http.Handler
	deployOpts []xcbc.Option
	routes     []routeInfo

	// Bodies fixed once the server is constructed: the discovery document,
	// encoded, and the rows of GET /api/v1/scenarios.
	discovery []byte
	builtins  []builtinInfo

	// tenants are the server's shards, sorted by name. openTenant is the
	// single anonymous shard when Config.Tenants is empty (open mode), nil
	// in multi-tenant mode; every resource registry and store lives on a
	// tenant, never on the Server.
	tenants    []*tenant
	openTenant *tenant

	// closing is closed when Serve begins graceful shutdown so
	// long-lived streams (SSE) end promptly instead of pinning Shutdown
	// against its drain deadline.
	closing     chan struct{}
	closingOnce sync.Once

	// campaignHook is Config.CampaignHook: the test-only planted-bug seam
	// consulted by every campaign this server runs.
	campaignHook xcbc.CampaignCheckHook
}

// deployment is one SDK deployment managed by the server: the identity it
// was created (and journaled) with, plus its live build. A live
// deployment's handle owns all mutable build state (lifecycle state,
// capped event journal, result), so the server never touches a build
// goroutine's data directly. A deployment recovered in a terminal
// non-ready state has no live handle; arch is then its recovered mirror
// entry, whose State, Error and Events are enough to serve status, journal
// and deletion, with day-2 routes answering 422 as they do for any
// terminal non-ready build.
type deployment struct {
	depCreatedRec
	Handle *xcbc.Handle // nil when archived
	arch   *depMirror   // nil when live
}

// state returns the deployment's lifecycle state.
func (d *deployment) state() string {
	if d.arch != nil {
		return d.arch.State
	}
	return string(d.Handle.Status())
}

// terminal reports whether the deployment has settled.
func (d *deployment) terminal() bool {
	if d.arch != nil {
		return true
	}
	return d.Handle.Status().Terminal()
}

// errMsg returns the deployment's terminal error message, "" if none.
func (d *deployment) errMsg() string {
	if d.arch != nil {
		return d.arch.Error
	}
	if err := d.Handle.Err(); err != nil {
		return err.Error()
	}
	return ""
}

// cluster returns the live day-2 surface, or an error for a deployment
// that is not (or can never again be) operable.
func (d *deployment) cluster() (*xcbc.Cluster, error) {
	if d.arch != nil {
		return nil, fmt.Errorf("deployment is archived %s", d.arch.State)
	}
	return d.Handle.Cluster()
}

// events returns journal events with Seq >= pg.cursor plus the next
// cursor. A positive limit caps how many events one response carries; the
// next cursor then points at the first event not returned, so clients page
// through with repeated requests. An archived journal is a run of
// consecutive seqs — from 0 unless the build outgrew the handle's ring
// before it settled — so a cursor indexes the slice after its first seq.
func (d *deployment) events(pg page) ([]eventInfo, int) {
	if a := d.arch; a != nil {
		first := 0
		if len(a.Events) > 0 {
			first = a.Events[0].Seq
		}
		pg.cursor = max(pg.cursor-first, 0)
		start, end := pg.window(len(a.Events))
		return a.Events[start:end], first + end
	}
	evs, next := d.Handle.Events(pg.cursor)
	if pg.limit > 0 && len(evs) > pg.limit {
		evs = evs[:pg.limit]
		next = evs[pg.limit-1].Seq + 1
	}
	return mapSlice(evs, eventInfoOf), next
}

// New builds a memory-only server for the given configuration. It panics
// on a Config with DataDir set — durable servers are constructed with
// Open, whose recovery can fail and must be able to report it — and on an
// invalid Tenants list (duplicate names or keys, bad names).
func New(cfg Config) *Server {
	if cfg.DataDir != "" {
		panic("api: Config.DataDir requires api.Open, not api.New")
	}
	s, err := newServer(cfg)
	if err != nil {
		panic(err.Error())
	}
	return s
}

// Open builds a server like New and, when cfg.DataDir is set, attaches
// the durable stores: each tenant's state is recovered from its own
// snapshot and write-ahead log before Open returns (see RecoveryReport
// for what that entails; in multi-tenant mode the report aggregates all
// tenants), and every subsequent mutation is journaled. The open tenant
// journals at the DataDir root; named tenants under DataDir/tenants/.
// Callers should Close the server to flush and release the logs.
func Open(cfg Config) (*Server, *RecoveryReport, error) {
	s, err := newServer(cfg)
	if err != nil {
		return nil, nil, err
	}
	if cfg.DataDir == "" {
		return s, &RecoveryReport{}, nil
	}
	agg := &RecoveryReport{DataDir: cfg.DataDir}
	for i, tn := range s.tenants {
		dir := cfg.DataDir
		if tn.name != "" {
			dir = filepath.Join(cfg.DataDir, "tenants", tn.name)
		}
		report, err := openStore(s, tn, dir, cfg)
		if err != nil {
			s.Close() // release the stores tenants before this one opened
			return nil, nil, err
		}
		if i == 0 && tn.name == "" {
			// Open mode: the single report, byte-faithful to pre-tenancy.
			return s, report, nil
		}
		agg.merge(report)
	}
	return s, agg, nil
}

// Close stops the server's background work (store watchers, streams) and
// flushes and closes every tenant's write-ahead log. A memory-only
// server's Close is a cheap no-op. Serve does not call Close; the caller
// owns it.
func (s *Server) Close() error {
	s.closingOnce.Do(func() { close(s.closing) })
	var errs []error
	for _, tn := range s.tenants {
		if tn.store != nil {
			errs = append(errs, tn.store.close())
			tn.store = nil
		}
	}
	return errors.Join(errs...)
}

func newServer(cfg Config) (*Server, error) {
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	tenants, open, err := buildTenants(cfg.Tenants)
	if err != nil {
		return nil, err
	}
	s := &Server{
		set:          repo.NewSet(),
		clock:        clock,
		logger:       cfg.Logger,
		deployOpts:   cfg.DeployOptions,
		closing:      make(chan struct{}),
		tenants:      tenants,
		openTenant:   open,
		campaignHook: cfg.CampaignHook,
	}
	for _, r := range cfg.Repos {
		s.set.Add(repo.Config{Repo: r, Priority: xcbc.XNITPriority, Enabled: true, GPGCheck: true})
	}
	for _, c := range cfg.RepoConfigs {
		s.set.Add(c)
	}

	mux := http.NewServeMux()
	s.routes = []routeInfo{
		{"GET", "/api/v1", "route and version discovery (this document)", s.handleIndex},
		{"GET", "/api/v1/store", "durability status: data dir, WAL size, snapshot age", s.handleStore},
		{"GET", "/api/v1/healthz", "liveness probe", s.handleHealth},
		{"GET", "/api/v1/repos", "list served repositories", s.handleRepos},
		{"GET", "/api/v1/repos/{id}", "one repository's configuration", s.handleRepo},
		{"GET", "/api/v1/repos/{id}/packages", "package records, ?name= filters", s.handleRepoPackages},
		{"POST", "/api/v1/depsolve", "resolve a package install plan", s.handleDepsolve},
		{"GET", "/api/v1/deployments", "list deployments (build-time view)", s.handleDeployments},
		{"POST", "/api/v1/deployments", "start an async build, 202 Accepted", s.handleCreateDeployment},
		{"GET", "/api/v1/deployments/{id}", "build status, ?cursor= pages the journal", s.handleDeployment},
		{"GET", "/api/v1/deployments/{id}/events", "Server-Sent Events build stream", s.handleDeploymentEvents},
		{"DELETE", "/api/v1/deployments/{id}", "cancel in-flight / remove terminal", s.handleDeleteDeployment},
		{"GET", "/api/v1/clusters", "list clusters (day-2 view of deployments)", s.handleClusters},
		{"GET", "/api/v1/clusters/{id}", "cluster summary; 409 until ready", s.handleCluster},
		{"POST", "/api/v1/clusters/{id}/jobs", "submit a batch job", s.handleSubmitJob},
		{"GET", "/api/v1/clusters/{id}/jobs", "list jobs, ?state= filters", s.handleJobs},
		{"GET", "/api/v1/clusters/{id}/jobs/{jid}", "one job's snapshot", s.handleJob},
		{"DELETE", "/api/v1/clusters/{id}/jobs/{jid}", "cancel a queued or running job", s.handleCancelJob},
		{"GET", "/api/v1/clusters/{id}/metrics", "poll nodes and return the snapshot", s.handleMetrics},
		{"GET", "/api/v1/clusters/{id}/alerts", "firing alerts and transition log", s.handleAlerts},
		{"POST", "/api/v1/clusters/{id}/validate", "HPL model + measured smoke solve", s.handleValidate},
		{"GET", "/api/v1/clusters/{id}/updates", "update check, ?policy= selects handling", s.handleUpdates},
		{"POST", "/api/v1/clusters/{id}/advance", "advance virtual time", s.handleAdvance},
		{"GET", "/api/v1/scenarios", "list built-in scenario scripts", s.handleScenarios},
		{"GET", "/api/v1/fleets", "list fleets (aggregate view)", s.handleFleets},
		{"POST", "/api/v1/fleets", "create a fleet, 202 Accepted, builds run async", s.handleCreateFleet},
		{"GET", "/api/v1/fleets/{id}", "fleet status with per-member states", s.handleFleet},
		{"DELETE", "/api/v1/fleets/{id}", "cancel unsettled / remove settled", s.handleDeleteFleet},
		{"POST", "/api/v1/fleets/{id}/scenarios", "run a scenario on the fleet, 202 Accepted", s.handleRunScenario},
		{"GET", "/api/v1/fleets/{id}/scenarios", "list the fleet's scenario runs", s.handleScenarioRuns},
		{"GET", "/api/v1/fleets/{id}/scenarios/{sid}", "run status, ?cursor= pages the trace", s.handleScenarioRun},
		{"GET", "/api/v1/campaigns", "list generative chaos campaigns", s.handleCampaigns},
		{"POST", "/api/v1/campaigns", "sweep generated scenarios, 202 Accepted", s.handleCreateCampaign},
		{"GET", "/api/v1/campaigns/{id}", "campaign progress; failures carry shrunk repros", s.handleCampaign},
	}
	allow := make(map[string][]string)
	for _, rt := range s.routes {
		mux.HandleFunc(rt.Method+" "+rt.Path, rt.handler)
		allow[rt.Path] = append(allow[rt.Path], rt.Method)
	}
	// Method-less fallbacks: a known path with the wrong verb is 405 (with
	// Allow), not 404. The method-specific patterns above are more
	// specific, so they win for their verbs.
	for _, path := range slices.Sorted(maps.Keys(allow)) {
		mux.HandleFunc(path, methodNotAllowed(strings.Join(allow[path], ", ")))
	}
	mux.HandleFunc("/api/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, "unknown API route (current version: "+Version+"; discover routes at GET /api/"+Version+")")
	})
	// Everything else is the legacy Yum surface, served over the live set
	// so runtime mutations through Repos() reach both route families.
	mux.Handle("/", repo.NewSetServer(clock, s.set))
	s.handler = s.logged(s.admit(mux))
	doc := discoveryDoc{
		Version: Version,
		Auth:    discoveryAuth{Mode: "open"},
		Pagination: discoveryPagination{
			Params:       "?cursor=&limit=",
			DefaultLimit: defaultPageLimit,
			MaxLimit:     maxPageLimit,
			NextCursor:   "every list envelope carries next_cursor; pass it back as ?cursor= to continue where the page ended",
		},
		Routes: s.routes,
	}
	if open == nil {
		doc.Auth = discoveryAuth{
			Mode:   "api-key",
			Header: "Authorization: Bearer <key> (or X-API-Key: <key>)",
			Exempt: admitExempt,
		}
	}
	if s.discovery, err = json.Marshal(doc); err != nil {
		return nil, err
	}
	s.discovery = append(s.discovery, '\n')
	for _, name := range xcbc.BuiltinScenarios() {
		sc, err := xcbc.BuiltinScenario(name)
		if err != nil {
			return nil, err
		}
		s.builtins = append(s.builtins, builtinInfo{sc.Name(), sc.Description(), sc.Members(), sc.Seed()})
	}
	return s, nil
}

// Handler returns the fully wired HTTP handler.
func (s *Server) Handler() http.Handler { return s.handler }

// Serve answers connections on ln until ctx is cancelled, then shuts down
// gracefully, draining in-flight requests for up to five seconds; it closes
// ln either way. The caller binds the listener — before Open, so that a
// port already taken fails before the DataDir is touched and clients that
// connect during recovery wait in the accept backlog instead of being
// refused. The server carries read/write/idle timeouts so a slow or stalled
// client cannot pin a connection open indefinitely.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler:           s.handler,
		ReadTimeout:       10 * time.Second,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		// Wake long-lived streams first so Shutdown's drain can finish.
		s.closingOnce.Do(func() { close(s.closing) })
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return err
		}
		<-errc // http.ErrServerClosed
		return nil
	}
}

// logged wraps a handler with request logging.
func (s *Server) logged(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.logger == nil {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		s.logger.Printf("%s %s %d %s", r.Method, r.URL.Path, rec.status,
			time.Since(start).Round(time.Microsecond))
	})
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so the SSE route can stream through
// the logging middleware.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer through
// the logging middleware — without it, the SSE route's write-deadline
// clear silently fails and the server's WriteTimeout kills long streams.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// mapSlice applies f to each element. The result is never nil, so an empty
// list encodes as [] and not null.
func mapSlice[T, U any](in []T, f func(T) U) []U {
	out := make([]U, 0, len(in))
	for _, v := range in {
		out = append(out, f(v))
	}
	return out
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, apiError{Error: msg})
}

// maxBodyBytes caps every POST body; no route's legitimate input (the
// largest is an inline scenario script) comes near it.
const maxBodyBytes = 1 << 20

// bodyTooLargeError is the 413 body; Err keeps the standard error envelope.
type bodyTooLargeError struct {
	Err   string `json:"error"`
	Code  string `json:"code"`
	Limit int64  `json:"limit_bytes"`
}

// decodeBody decodes the request's JSON body into v, reading at most
// maxBodyBytes. On failure it answers 413 (oversized) or 400 (malformed)
// and reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeJSON(w, http.StatusRequestEntityTooLarge, bodyTooLargeError{
			Err:   fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit),
			Code:  "body_too_large",
			Limit: tooBig.Limit,
		})
		return false
	}
	writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
	return false
}

func methodNotAllowed(allow string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		writeError(w, http.StatusMethodNotAllowed, r.Method+" not allowed (Allow: "+allow+")")
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "version": Version})
}

// discoveryDoc is the GET /api/v1 document: the API version, the
// admission and pagination contracts, and the full route listing, in a
// struct (not a map) so the field order — and therefore the golden test
// bytes — is pinned.
type discoveryDoc struct {
	Version    string              `json:"version"`
	Auth       discoveryAuth       `json:"auth"`
	Pagination discoveryPagination `json:"pagination"`
	Routes     []routeInfo         `json:"routes"`
}

// discoveryAuth advertises the admission contract so clients can
// feature-detect multi-tenant mode instead of probing for a 401.
type discoveryAuth struct {
	Mode   string   `json:"mode"` // "open" or "api-key"
	Header string   `json:"header,omitempty"`
	Exempt []string `json:"exempt,omitempty"`
}

// discoveryPagination advertises the shared ?cursor=&limit= contract.
type discoveryPagination struct {
	Params       string `json:"params"`
	DefaultLimit int    `json:"default_limit"`
	MaxLimit     int    `json:"max_limit"`
	NextCursor   string `json:"next_cursor"`
}

// handleIndex serves the discovery document: the API version, the auth
// and pagination contracts, and the full route listing, so clients can
// feature-detect capabilities (the cluster day-2 routes in particular)
// instead of probing with requests.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(s.discovery)
}

// repoInfo is the JSON shape of one repository.
type repoInfo struct {
	ID       string `json:"id"`
	Name     string `json:"name"`
	BaseURL  string `json:"baseurl"`
	Priority int    `json:"priority"`
	Enabled  bool   `json:"enabled"`
	Packages int    `json:"packages"`
	Revision int    `json:"revision"`
}

func repoInfoOf(c repo.Config) repoInfo {
	return repoInfo{
		ID:       c.Repo.ID,
		Name:     c.Repo.Name,
		BaseURL:  c.Repo.BaseURL,
		Priority: c.Priority,
		Enabled:  c.Enabled,
		Packages: c.Repo.Len(),
		Revision: c.Repo.Revision(),
	}
}

func (s *Server) handleRepos(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"repos": mapSlice(s.set.Configs(), repoInfoOf)})
}

// lookupConfig finds the config for a repository ID.
func (s *Server) lookupConfig(id string) (repo.Config, bool) {
	for _, c := range s.set.Configs() {
		if c.Repo.ID == id {
			return c, true
		}
	}
	return repo.Config{}, false
}

func (s *Server) handleRepo(w http.ResponseWriter, r *http.Request) {
	c, ok := s.lookupConfig(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown repository")
		return
	}
	writeJSON(w, http.StatusOK, repoInfoOf(c))
}

// packageInfo is the JSON shape of one package record.
type packageInfo struct {
	NEVRA    string `json:"nevra"`
	Name     string `json:"name"`
	Version  string `json:"version"`
	Arch     string `json:"arch"`
	Category string `json:"category,omitempty"`
	Summary  string `json:"summary,omitempty"`
	Size     int64  `json:"size_bytes,omitempty"`
}

func packageInfoOf(p *rpm.Package) packageInfo {
	return packageInfo{
		NEVRA:    p.NEVRA(),
		Name:     p.Name,
		Version:  p.EVR.String(),
		Arch:     string(p.Arch),
		Category: p.Category,
		Summary:  p.Summary,
		Size:     p.SizeBytes,
	}
}

func (s *Server) handleRepoPackages(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rep := s.set.Lookup(id)
	if rep == nil {
		writeError(w, http.StatusNotFound, "unknown repository")
		return
	}
	var pkgs []*rpm.Package
	if name := r.URL.Query().Get("name"); name != "" {
		pkgs = rep.Get(name)
	} else {
		pkgs = rep.All()
	}
	writeJSON(w, http.StatusOK, map[string]any{"repo": id, "count": len(pkgs), "packages": mapSlice(pkgs, packageInfoOf)})
}

// depsolveRequest asks for a dependency resolution: which package installs
// a node with `installed` packages needs to end up with `install`.
type depsolveRequest struct {
	Installed []string `json:"installed"`
	Install   []string `json:"install"`
}

type depsolveResponse struct {
	Installs      []packageInfo `json:"installs"`
	Count         int           `json:"count"`
	DownloadBytes int64         `json:"download_bytes"`
}

func (s *Server) handleDepsolve(w http.ResponseWriter, r *http.Request) {
	var req depsolveRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Install) == 0 {
		writeError(w, http.StatusBadRequest, "install list is empty")
		return
	}
	// Seed a hypothetical node: the installed set, closed over its
	// dependencies, as a real node would be.
	db := rpm.NewDB()
	if len(req.Installed) > 0 {
		seed, err := depsolve.New(s.set, db).Install(req.Installed...)
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, "installed set unresolvable: "+err.Error())
			return
		}
		if err := seed.Run(db); err != nil {
			writeError(w, http.StatusUnprocessableEntity, "installed set inconsistent: "+err.Error())
			return
		}
	}
	tx, err := depsolve.New(s.set, db).Install(req.Install...)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	resp := depsolveResponse{Installs: []packageInfo{}, DownloadBytes: tx.DownloadBytes()}
	for _, op := range tx.Ops {
		if op.Kind != rpm.OpErase {
			resp.Installs = append(resp.Installs, packageInfoOf(op.Pkg))
		}
	}
	resp.Count = len(resp.Installs)
	writeJSON(w, http.StatusOK, resp)
}

// deploymentInfo is the JSON shape of one managed deployment. State is
// always present; the build-result fields (scheduler, packages, compat,
// install duration) are filled in once the deployment reaches "ready", and
// Error once it is "failed" or "cancelled". Events carries the journal
// slice requested via ?cursor=N, NextCursor the value to pass next time.
type deploymentInfo struct {
	ID                string      `json:"id"`
	Path              string      `json:"path"`
	State             string      `json:"state"`
	Error             string      `json:"error,omitempty"`
	Cluster           string      `json:"cluster"`
	Site              string      `json:"site"`
	Nodes             int         `json:"nodes"`
	Scheduler         string      `json:"scheduler,omitempty"`
	PackagesInstalled int         `json:"packages_installed,omitempty"`
	InstallDuration   string      `json:"install_duration,omitempty"`
	Quarantined       []string    `json:"quarantined,omitempty"`
	CompatPassed      int         `json:"compat_passed,omitempty"`
	CompatTotal       int         `json:"compat_total,omitempty"`
	Created           time.Time   `json:"created"`
	Events            []eventInfo `json:"events,omitempty"`
	NextCursor        int         `json:"next_cursor"`
}

type eventInfo struct {
	Seq      int    `json:"seq"`
	Stage    string `json:"stage"`
	Node     string `json:"node,omitempty"`
	Message  string `json:"message,omitempty"`
	Packages int    `json:"packages,omitempty"`
	Elapsed  string `json:"elapsed,omitempty"`
}

func eventInfoOf(ev xcbc.Event) eventInfo {
	return eventInfo{Seq: ev.Seq, Stage: ev.Stage, Node: ev.Node,
		Message: ev.Message, Packages: ev.Packages, Elapsed: ev.Elapsed.String()}
}

func (s *Server) deploymentInfoOf(dep *deployment, withEvents bool, pg page) deploymentInfo {
	info := deploymentInfo{
		ID:      dep.ID,
		Path:    dep.Path,
		State:   dep.state(),
		Error:   dep.errMsg(),
		Cluster: dep.Cluster,
		Site:    dep.Site,
		Nodes:   dep.Nodes,
		Created: dep.Created,
	}
	if dep.Handle != nil {
		if d, ok := dep.Handle.Deployment(); ok {
			info.Scheduler = d.Scheduler()
			info.PackagesInstalled = d.PackagesInstalled()
			info.InstallDuration = d.InstallDuration().String()
			info.Quarantined = d.Quarantined()
			if passed, total, err := d.CompatCounts(); err == nil {
				info.CompatPassed, info.CompatTotal = passed, total
			}
		}
	}
	if withEvents {
		info.Events, info.NextCursor = dep.events(pg)
		if info.Events == nil {
			info.Events = []eventInfo{}
		}
	} else {
		// Event-less bodies (list, DELETE-cancel) still report the journal
		// tip so "pass next_cursor back" holds on every response.
		_, info.NextCursor = dep.events(page{cursor: math.MaxInt})
	}
	return info
}

func (s *Server) handleDeployments(w http.ResponseWriter, r *http.Request) {
	servePage(w, r, "deployments", s.tenant(r).deployments, func(dep *deployment) deploymentInfo {
		return s.deploymentInfoOf(dep, false, page{})
	})
}

// createDeploymentRequest provisions a new cluster through the SDK.
type createDeploymentRequest struct {
	Cluster     string   `json:"cluster"`
	Path        string   `json:"path"` // "xcbc" (default) or "xnit"
	Scheduler   string   `json:"scheduler"`
	Rolls       []string `json:"rolls"`
	Profiles    []string `json:"profiles"`
	NodeCount   int      `json:"node_count"`
	Parallelism int      `json:"parallelism"` // compute-install wave width
	Retries     int      `json:"retries"`     // per-node retry budget
}

// startBuild validates req and starts the build asynchronously, returning
// the handle and the normalized path ("xcbc" or "xnit"). Request-shape
// errors wrap xcbc.ErrBadOption so deployErrorStatus keeps them 400. It
// is the single build entry point for the create handler and recovery.
func (s *Server) startBuild(req createDeploymentRequest) (*xcbc.Handle, string, error) {
	hwOpts := append([]xcbc.Option{}, s.deployOpts...)
	if req.Cluster != "" {
		hwOpts = append(hwOpts, xcbc.WithCluster(req.Cluster))
	}
	if req.NodeCount != 0 {
		hwOpts = append(hwOpts, xcbc.WithNodeCount(req.NodeCount))
	}

	var h *xcbc.Handle
	var err error
	path := req.Path
	if path == "" {
		path = "xcbc"
	}
	// The build must outlive the creating request: it is detached from the
	// request context and cancelled only through DELETE (or server policy).
	switch path {
	case "xcbc":
		if len(req.Profiles) > 0 {
			return nil, "", fmt.Errorf("%w: profiles are an XNIT option; the xcbc path uses rolls", xcbc.ErrBadOption)
		}
		opts := hwOpts
		if req.Scheduler != "" {
			opts = append(opts, xcbc.WithScheduler(req.Scheduler))
		}
		if req.Rolls != nil {
			opts = append(opts, xcbc.WithRolls(req.Rolls...))
		}
		if req.Parallelism != 0 {
			opts = append(opts, xcbc.WithParallelism(req.Parallelism))
		}
		if req.Retries != 0 {
			opts = append(opts, xcbc.WithRetries(req.Retries))
		}
		h, err = xcbc.NewXCBC(opts...).Start(context.Background())
	case "xnit":
		if req.Rolls != nil {
			return nil, "", fmt.Errorf("%w: rolls are an XCBC option; the xnit path uses profiles", xcbc.ErrBadOption)
		}
		if req.Parallelism != 0 || req.Retries != 0 {
			return nil, "", fmt.Errorf("%w: parallelism and retries apply to the xcbc kickstart path only", xcbc.ErrBadOption)
		}
		xnitOpts := append(append([]xcbc.Option{}, s.deployOpts...), xcbc.WithProfiles(req.Profiles...))
		if req.Scheduler != "" {
			xnitOpts = append(xnitOpts, xcbc.WithScheduler(req.Scheduler))
		}
		// The vendor hardware arrives provisioned (it is the machine's ship
		// state), so that leg runs synchronously; the XNIT adoption is the
		// long-running build and goes async.
		var vendor *xcbc.Deployment
		vendor, err = xcbc.NewVendor(hwOpts...).Deploy(context.Background())
		if err == nil {
			h, err = xcbc.NewXNIT(vendor, xnitOpts...).Start(context.Background())
		}
	default:
		return nil, "", fmt.Errorf("%w: unknown path %q (use xcbc or xnit)", xcbc.ErrBadOption, path)
	}
	if err != nil {
		return nil, "", err
	}
	return h, path, nil
}

// handleCreateDeployment validates the request synchronously (bad names,
// impossible hardware, and option errors keep their 4xx statuses), then
// starts the build asynchronously and answers 202 Accepted with the
// deployment in its initial lifecycle state. Clients follow up via GET
// polling or the /events stream.
func (s *Server) handleCreateDeployment(w http.ResponseWriter, r *http.Request) {
	var req createDeploymentRequest
	if !decodeBody(w, r, &req) {
		return
	}
	tn := s.tenant(r)
	h, path, err := s.startBuild(req)
	if err != nil {
		writeError(w, deployErrorStatus(err), err.Error())
		return
	}
	hw := h.Hardware()
	dep, quota := tn.deployments.insert(func(id string) *deployment {
		return &deployment{Handle: h, depCreatedRec: depCreatedRec{
			ID: id, Path: path, Req: req, Created: s.clock(),
			Cluster: hw.Name, Site: hw.Site, Nodes: hw.NodeCount(),
		}}
	})
	if quota != nil {
		h.Cancel()
		writeJSON(w, http.StatusForbidden, quota)
		return
	}
	if tn.store != nil {
		tn.store.emit(recDeploymentCreated, dep.depCreatedRec)
		tn.store.watchDeployment(dep)
	}
	writeJSON(w, http.StatusAccepted, s.deploymentInfoOf(dep, true, page{limit: defaultPageLimit}))
}

// deployErrorStatus maps SDK sentinel errors onto HTTP statuses: bad names
// and malformed requests are the client's fault, impossible operations are
// unprocessable, unknown resources are 404, a deployment that has not
// settled yet is a 409 conflict, anything else is a server error.
func deployErrorStatus(err error) int {
	switch {
	case errors.Is(err, xcbc.ErrUnknownCluster),
		errors.Is(err, xcbc.ErrUnknownScheduler),
		errors.Is(err, xcbc.ErrUnknownRoll),
		errors.Is(err, xcbc.ErrUnknownProfile),
		errors.Is(err, xcbc.ErrUnknownPowerPolicy),
		errors.Is(err, xcbc.ErrBadNodeCount),
		errors.Is(err, xcbc.ErrBadJob),
		errors.Is(err, xcbc.ErrBadOption):
		return http.StatusBadRequest
	case errors.Is(err, xcbc.ErrUnknownJob):
		return http.StatusNotFound
	case errors.Is(err, xcbc.ErrNotReady):
		return http.StatusConflict
	case errors.Is(err, xcbc.ErrDiskless),
		errors.Is(err, xcbc.ErrDepCycle),
		errors.Is(err, xcbc.ErrUnresolvable),
		errors.Is(err, xcbc.ErrJobsRunning),
		errors.Is(err, xcbc.ErrNoScheduler),
		errors.Is(err, xcbc.ErrNoRepos):
		return http.StatusUnprocessableEntity
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return 499 // client closed request
	}
	return http.StatusInternalServerError
}

// handleDeployment reports status. ?cursor=N (default 0) selects which
// journal events ride along, ?limit= caps the page; clients poll by
// passing back next_cursor.
func (s *Server) handleDeployment(w http.ResponseWriter, r *http.Request) {
	dep, ok := s.tenant(r).deployments.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown deployment")
		return
	}
	if pg, ok := parsePage(w, r); ok {
		writeJSON(w, http.StatusOK, s.deploymentInfoOf(dep, true, pg))
	}
}

// handleDeploymentEvents streams the journal as Server-Sent Events: one
// `data:` line per event (the eventInfo JSON), then a terminal
// `event: state` frame once the deployment settles, after which the stream
// closes. ?cursor=N resumes mid-journal.
func (s *Server) handleDeploymentEvents(w http.ResponseWriter, r *http.Request) {
	dep, ok := s.tenant(r).deployments.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown deployment")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	cursor, err := parseCursor(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if dep.arch == nil {
		// The stream must outlive the server's WriteTimeout (set against
		// slow-loris clients, not long-lived push streams): clear the write
		// deadline for this response only.
		_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	// writeEvents sends a data frame for each journal event past cursor and
	// reports whether there were any; finish sends the terminal state frame.
	writeEvents := func() bool {
		var evs []eventInfo
		evs, cursor = dep.events(page{cursor: cursor})
		for _, ev := range evs {
			payload, _ := json.Marshal(ev)
			fmt.Fprintf(w, "data: %s\n\n", payload)
		}
		return len(evs) > 0
	}
	finish := func() {
		writeEvents() // for a live build, anything emitted between read and check
		final := map[string]string{"state": dep.state()}
		if msg := dep.errMsg(); msg != "" {
			final["error"] = msg
		}
		payload, _ := json.Marshal(final)
		fmt.Fprintf(w, "event: state\ndata: %s\n\n", payload)
		flusher.Flush()
	}
	if dep.arch != nil {
		// An archived deployment's journal is complete and its state final:
		// replay the recorded events, send the terminal frame, and close.
		finish()
		return
	}
	h := dep.Handle
	wake, unsubscribe := h.Subscribe()
	defer unsubscribe()
	for {
		if writeEvents() {
			flusher.Flush()
		}
		if h.Status().Terminal() {
			finish()
			return
		}
		select {
		case <-wake:
		case <-h.Done():
		case <-r.Context().Done():
			return
		case <-s.closing:
			return
		}
	}
}

// handleDeleteDeployment cancels or removes. An in-flight build is
// cancelled — 202 Accepted, the record stays so the cancellation can be
// observed settling — while a terminal deployment is removed (204).
func (s *Server) handleDeleteDeployment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tn := s.tenant(r)
	dep, found, removed := tn.deployments.removeIf(id, (*deployment).terminal)
	switch {
	case !found:
		writeError(w, http.StatusNotFound, "unknown deployment")
	case removed:
		tn.emit(recDeploymentDeleted, depDeletedRec{ID: id})
		w.WriteHeader(http.StatusNoContent)
	default:
		dep.Handle.Cancel()
		writeJSON(w, http.StatusAccepted, s.deploymentInfoOf(dep, false, page{}))
	}
}
