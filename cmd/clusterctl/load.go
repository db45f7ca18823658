package main

// clusterctl load — replay internal/loadgen's deterministic seeded request
// mix against a control-plane server on bench/work's closed-loop runner
// and print wrk-style results, with exact nearest-rank latency quantiles.
// The mix is read-mostly (paginated lists, discovery, durability status)
// plus a depsolve POST, so it is safe to point at a server holding real
// state: it creates and deletes nothing. A run keeps 16 B per request, so
// -n is capped at 10,000,000.

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"xcbc/internal/loadgen"
)

func loadCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("load", flag.ContinueOnError)
	fs.SetOutput(stderr)
	server := fs.String("server", "http://localhost:8080", "control-plane base URL")
	n := fs.Int("n", 1000, "total requests to issue (at most 10,000,000)")
	workers := fs.Int("workers", 8, "concurrent workers")
	seed := fs.Uint64("seed", 1, "seed for the deterministic request mix")
	keyFlag(fs)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	// One connection per worker (8 when -workers is not positive, as loadgen
	// runs), kept idle between its requests: the default transport keeps 2
	// idle a host, so workers re-dialed, and it races a dial against a
	// connection coming free, so more than one per worker were opened.
	// MaxIdleConns 0 lifts its cap of 100 idle in all.
	conns := cmp.Or(max(*workers, 0), 8)
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConns, transport.MaxIdleConnsPerHost, transport.MaxConnsPerHost = 0, conns, conns
	res, err := loadgen.Run(loadgen.Spec{
		Doer: loadgen.URL{
			Base:   strings.TrimRight(*server, "/"),
			Client: &http.Client{Timeout: 10 * time.Second, Transport: transport},
		},
		Mix:      loadgen.Mix(apiKey),
		Workers:  *workers,
		Requests: *n,
		Seed:     *seed,
	})
	if err != nil {
		fmt.Fprintln(stderr, "clusterctl:", err)
		return 1
	}
	fmt.Fprint(stdout, res.String())
	if bad := res.Unexpected(); bad > 0 {
		fmt.Fprintf(stderr, "clusterctl: %d responses outside 2xx/429 (wrong -api-key, or a server bug)\n", bad)
		return 1
	}
	return 0
}
