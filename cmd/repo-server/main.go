// Command repo-server is the toolkit's HTTP control plane: the versioned
// JSON REST API (/api/v1/...) for repositories, dependency resolution, and
// deployments, plus the legacy Yum routes the XSEDE Campus Bridging team
// served at cb-repo.iu.xsede.org (README at /, metadata at
// /{repo}/repodata/repomd.json, package records under /{repo}/packages/).
//
// The server logs every request, carries read/write timeouts, and shuts
// down gracefully on SIGINT/SIGTERM.
//
// With -data-dir the control plane becomes durable: every resource
// mutation is journalled to a write-ahead log under the directory and a
// restarted server recovers its deployments, fleets, and scenario runs
// before it answers (see GET /api/v1/store for live durability status). The
// port is bound before recovery starts: a second server started by mistake
// on a live one's -addr exits before it touches the DataDir, and a client
// that connects during recovery is held in the accept backlog, not refused.
//
// With -tenants the control plane becomes multi-tenant: the flag names a
// JSON file holding an array of tenant declarations —
//
//	[{"name": "physics", "key": "s3cret",
//	  "quotas": {"max_deployments": 8, "max_fleets": 4, "max_campaigns": 2},
//	  "rate_limit": 50, "burst": 100}]
//
// — and every /api/v1 request (except discovery and the health probe)
// must then carry a tenant's key as "Authorization: Bearer <key>" or
// "X-API-Key". Each tenant sees only its own resources, is rate-limited
// to its token bucket (429 + Retry-After), and is capped at its quotas
// (403). With -data-dir too, each tenant journals to its own WAL under
// <data-dir>/tenants/<name>, so restarts recover every shard.
//
// With -debug-addr the server also serves net/http/pprof
// (/debug/pprof/...) on that address, from its own mux on a separate
// listener: profiles are never reachable through the API port, and the
// flag is off by default. Bind it to loopback —
//
//	repo-server -addr :8080 -debug-addr 127.0.0.1:6060
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=10
//	go tool pprof http://127.0.0.1:6060/debug/pprof/heap
//
// Usage:
//
//	repo-server -addr :8080
//	repo-server -addr :8080 -data-dir /var/lib/repo-server
//	curl localhost:8080/api/v1                 # route discovery
//	curl localhost:8080/api/v1/repos
//	curl localhost:8080/api/v1/repos/xsede/packages?name=gcc
//	curl -d '{"install":["gromacs"]}' localhost:8080/api/v1/depsolve
//	curl -d '{"cluster":"littlefe","scheduler":"torque"}' localhost:8080/api/v1/deployments
//	curl localhost:8080/api/v1/clusters/d1     # day-2 view once ready
//	curl -d '{"cores":4,"walltime":"1h"}' localhost:8080/api/v1/clusters/d1/jobs
//	curl localhost:8080/                       # readme.xsederepo
//	curl localhost:8080/xsede/repodata/repomd.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"xcbc/internal/repo"
	"xcbc/pkg/xcbc"
	"xcbc/pkg/xcbc/api"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program but the exit: it parses args, binds, recovers and
// serves until ctx is cancelled, and returns the exit status.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repo-server", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	quiet := fs.Bool("quiet", false, "disable request logging")
	dataDir := fs.String("data-dir", "", "durable state directory (empty = in-memory only)")
	snapEvery := fs.Int("snapshot-every", 0, "WAL records between snapshots (0 = default)")
	resume := fs.Bool("resume", false, "resume deployments interrupted mid-build instead of failing them")
	tenantsPath := fs.String("tenants", "", "JSON tenant config file (empty = open mode, no auth)")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof on this address, separate from -addr (empty = off)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(v ...any) int {
		fmt.Fprintln(stderr, append([]any{"repo-server:"}, v...)...)
		return 1
	}
	if *debugAddr == "" {
		// Linking net/http/pprof switches the runtime's heap-profile
		// sampling on for the whole process (~0.9 MB resident for its
		// bucket tables); with no debug listener nobody can read it.
		runtime.MemProfileRate = 0
	} else {
		// Up before api.Open: a bad address fails before the WAL is
		// touched, and recovery itself can be profiled.
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fail("debug listener:", err)
		}
		dbg := &http.Server{Handler: debugMux(), ReadHeaderTimeout: 10 * time.Second}
		go dbg.Serve(ln) // returns when dbg.Close below shuts the listener
		defer dbg.Close()
		fmt.Fprintf(stdout, "serving pprof on http://%s/debug/pprof/\n", ln.Addr())
	}
	// Bound before api.Open too. An address already taken — above all by a
	// live server on the same -data-dir — fails here, before recovery can
	// journal into, snapshot or truncate a log that process is appending to;
	// and a client that connects while recovery runs waits in the accept
	// backlog and is answered the moment it ends: a port that is bound but
	// not yet accepting means "recovering".
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(err)
	}
	defer ln.Close() // for the failures below; Serve closes it itself

	xnit, err := xcbc.NewXNITRepository()
	if err != nil {
		return fail(err)
	}
	var logger *log.Logger
	if !*quiet {
		logger = log.New(stderr, "repo-server: ", log.LstdFlags)
	}
	cfg := api.Config{Repos: []*repo.Repository{xnit}, Logger: logger,
		DataDir: *dataDir, SnapshotEvery: *snapEvery, ResumeInterrupted: *resume}
	if *tenantsPath != "" {
		raw, err := os.ReadFile(*tenantsPath)
		if err != nil {
			return fail(err)
		}
		if err := json.Unmarshal(raw, &cfg.Tenants); err != nil {
			return fail(fmt.Sprintf("parsing %s: %v", *tenantsPath, err))
		}
	}
	srv, rec, err := api.Open(cfg)
	if err != nil {
		return fail(err)
	}
	defer srv.Close()
	if rec != nil {
		fmt.Fprintf(stdout, "recovered %s in %v: %d deployments (%d rebuilt, %d archived, %d interrupted, %d resumed, %d ops replayed), %d fleets, %d runs (%d replayed, %d diverged), %d campaigns (%d interrupted)\n",
			rec.DataDir, rec.Elapsed.Round(time.Millisecond),
			rec.Deployments, rec.Rebuilt, rec.Archived, rec.Interrupted, rec.Resumed, rec.OpsReplayed,
			rec.Fleets, rec.Runs, rec.Replayed, rec.ReplayMismatches,
			rec.Campaigns, rec.CampaignsInterrupted)
		if rec.Repaired {
			fmt.Fprintf(stdout, "repaired torn WAL tail (%d bytes dropped)\n", rec.DroppedBytes)
		}
	}

	fmt.Fprintf(stdout, "serving XSEDE repository (%d packages) and API %s on %s\n",
		xnit.Len(), api.Version, ln.Addr())
	fmt.Fprintln(stdout, "routes: /api/v1/{healthz,repos,depsolve,deployments,clusters}  /  /xsede/repodata/repomd.json")
	fmt.Fprintln(stdout, "discover the full route table at GET /api/"+api.Version)
	if err := srv.Serve(ctx, ln); err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, "repo-server: shut down cleanly")
	return 0
}

// debugMux serves the pprof handlers and nothing else. Importing
// net/http/pprof also registers them on http.DefaultServeMux, which this
// program never serves: the API has its own mux too.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
