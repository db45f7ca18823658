// Command clusterctl builds an XCBC cluster, replays a small batch workload
// through the portable command layer, and prints scheduler, monitoring, and
// power reports — a one-command tour of the running system.
//
// Usage:
//
//	clusterctl -cluster littlefe -scheduler torque
//	clusterctl -cluster limulus -power on-demand
//	clusterctl deploy -cluster littlefe -parallelism 8 -watch
//	clusterctl fleet scenarios
//	clusterctl fleet run campus-100 [-seed N] [-trace out.jsonl] [-v]
//	clusterctl campaign run -seeds 64 -workers 8 [-repro-dir DIR]
//	clusterctl scenario validate chaos.json
//
// The fleet subcommand drives the scenario engine locally: provision a
// whole fleet of simulated clusters, inject seeded chaos, run day-2
// operations, and check invariants, emitting a deterministic JSONL trace.
// The campaign subcommand sweeps generated scenarios across many seeds and
// shrinks any failure to a minimal repro; scenario validate checks a
// script without running it.
//
// The deploy subcommand drives the asynchronous orchestrator path: the
// build starts as a background job; -watch streams its journal to the
// terminal and the command exits with the deployment's terminal state
// (0 ready, 1 failed, 2 cancelled — Ctrl-C cancels the build).
//
// The day-2 subcommands operate a cluster through a control-plane server
// (repo-server, or anything serving pkg/xcbc/api) against the
// /api/v1/clusters routes:
//
//	clusterctl jobs submit -server URL -id d1 -name relax -user alice -cores 4 -walltime 1h
//	clusterctl jobs ls     -server URL -id d1 [-state running]
//	clusterctl jobs cancel -server URL -id d1 -job 3
//	clusterctl metrics     -server URL -id d1
//	clusterctl validate    -server URL -id d1
//	clusterctl advance     -server URL -id d1 -by 30m
//	clusterctl load        -server URL [-n 1000] [-workers 8] [-seed 1]
//
// Servers running with tenants configured require an API key on every
// request; pass it with -api-key (or $CLUSTERCTL_API_KEY). The load
// subcommand replays internal/loadgen's deterministic seeded read-mostly
// request mix on bench/work's closed-loop runner, one client per worker,
// and prints wrk-style throughput and exact latency quantiles; it exits 1
// if any response falls outside 2xx/429, or if -n is over 10,000,000.
//
// When the target deployment is still pending or building the server
// answers 409 Conflict; clusterctl prints the state with a wait hint and
// exits 2 (retryable). Everything else — a wrong request, and a build
// that settled failed or cancelled (422: waiting will never help) —
// exits 1.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"xcbc/internal/sim"
	"xcbc/pkg/xcbc"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "deploy":
			os.Exit(deployCmd(os.Args[2:]))
		case "fleet":
			os.Exit(fleetCmd(os.Args[2:], os.Stdout, os.Stderr))
		case "campaign":
			os.Exit(campaignCmd(os.Args[2:], os.Stdout, os.Stderr))
		case "scenario":
			os.Exit(scenarioCmd(os.Args[2:], os.Stdout, os.Stderr))
		case "jobs":
			os.Exit(jobsCmd(os.Args[2:]))
		case "metrics":
			os.Exit(metricsCmd(os.Args[2:]))
		case "validate":
			os.Exit(validateCmd(os.Args[2:]))
		case "advance":
			os.Exit(advanceCmd(os.Args[2:]))
		case "load":
			os.Exit(loadCmd(os.Args[2:], os.Stdout, os.Stderr))
		}
	}
	clusterName := flag.String("cluster", "littlefe", "cluster: littlefe, marshall, or howard (XCBC path)")
	scheduler := flag.String("scheduler", "torque", "torque, slurm, or sge")
	powerPolicy := flag.String("power", "always-on", "always-on or on-demand")
	flag.Parse()

	d, err := xcbc.NewXCBC(
		xcbc.WithCluster(*clusterName),
		xcbc.WithScheduler(*scheduler),
		xcbc.WithPowerPolicy(xcbc.PowerPolicy(*powerPolicy)),
	).Deploy(context.Background())
	if err != nil {
		fmt.Fprintln(os.Stderr, "clusterctl:", err)
		os.Exit(1)
	}
	eng := d.Engine()
	fmt.Printf("built %s with %s in %v (simulated)\n\n", d.Hardware().Name, *scheduler, d.InstallDuration())

	// Replay a small workload with the user-facing commands.
	var cmds []string
	if *scheduler == "slurm" {
		cmds = []string{
			"sbatch -J md-relax -n 4 -t 60 -u alice relax.sh",
			"sbatch -J blast -n 2 -t 30 -u bob blast.sh",
			"sbatch -J assembly -n 8 -t 120 -u carol trinity.sh",
		}
	} else {
		cmds = []string{
			"qsub -N md-relax -l nodes=2:ppn=2,walltime=01:00:00 -u alice relax.sh",
			"qsub -N blast -l nodes=1:ppn=2,walltime=00:30:00 -u bob blast.sh",
			"qsub -N assembly -l nodes=4:ppn=2,walltime=02:00:00 -u carol trinity.sh",
		}
	}
	for _, cmd := range cmds {
		out, err := d.Exec(cmd)
		if err != nil {
			fmt.Fprintln(os.Stderr, "clusterctl:", err)
			os.Exit(1)
		}
		fmt.Printf("$ %s\n%s\n", cmd, out)
	}
	status := "qstat"
	if *scheduler == "slurm" {
		status = "squeue"
	}
	out, _ := d.Exec(status)
	fmt.Printf("$ %s\n%s\n", status, out)

	// Monitor while the workload runs.
	d.Monitor().Start(eng, time.Minute, 30)
	eng.RunUntil(eng.Now() + sim.Time(30*time.Minute))
	fmt.Print(d.Monitor().Report())

	eng.Run()
	total := d.PowerManager().Finalize()
	fmt.Printf("\nworkload complete at %v; %d jobs finished; energy %.1f Wh (policy %s)\n",
		eng.Now(), len(d.Batch().History()), total, *powerPolicy)
}

// deployCmd runs `clusterctl deploy`: start an asynchronous build, watch
// its journal, exit with the terminal state.
func deployCmd(args []string) int {
	fs := flag.NewFlagSet("deploy", flag.ExitOnError)
	clusterName := fs.String("cluster", "littlefe", "cluster to build")
	scheduler := fs.String("scheduler", "torque", "torque, slurm, or sge")
	nodes := fs.Int("nodes", 0, "override the compute node count (0 = as cataloged)")
	parallelism := fs.Int("parallelism", 1, "compute kickstarts per wave (1 = sequential)")
	retries := fs.Int("retries", 0, "per-node install retries before quarantine")
	watch := fs.Bool("watch", false, "stream build events until the deployment settles")
	fs.Parse(args)

	opts := []xcbc.Option{
		xcbc.WithCluster(*clusterName),
		xcbc.WithScheduler(*scheduler),
		xcbc.WithParallelism(*parallelism),
		xcbc.WithRetries(*retries),
	}
	if *nodes > 0 {
		opts = append(opts, xcbc.WithNodeCount(*nodes))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	h, err := xcbc.NewXCBC(opts...).Start(context.Background())
	if err != nil {
		fmt.Fprintln(os.Stderr, "clusterctl deploy:", err)
		return 1
	}
	go func() {
		<-ctx.Done()
		h.Cancel()
	}()

	if *watch {
		h.Watch(context.Background(), func(ev xcbc.Event) {
			fmt.Printf("  %4d [%-12s] %-14s %s\n", ev.Seq, ev.Stage, ev.Node, ev.Message)
		})
	}

	d, err := h.Wait(context.Background())
	switch h.Status() {
	case xcbc.StateReady:
		fmt.Printf("deployment ready: %s, %d nodes, %d packages in %v (simulated, parallelism %d)\n",
			d.Hardware().Name, d.Hardware().NodeCount(), d.PackagesInstalled(),
			d.InstallDuration(), *parallelism)
		if q := d.Quarantined(); len(q) > 0 {
			fmt.Printf("quarantined nodes: %v\n", q)
		}
		return 0
	case xcbc.StateCancelled:
		fmt.Fprintln(os.Stderr, "clusterctl deploy: build cancelled")
		return 2
	default:
		if err == nil {
			err = errors.New(string(h.Status()))
		}
		fmt.Fprintln(os.Stderr, "clusterctl deploy: build failed:", err)
		return 1
	}
}

// --- day-2 REST client -------------------------------------------------
//
// The subcommands below talk to a control-plane server's /api/v1/clusters
// routes. They share clientFlags and the exit-code contract: 0 success,
// 1 request or server error, 2 the deployment is not ready yet (retry
// after the build settles).

// apiKey is the bearer token sent with every control-plane request, for
// servers running with tenants configured. Set by -api-key on any remote
// subcommand; defaults to $CLUSTERCTL_API_KEY so scripts need not embed
// credentials in argv.
var apiKey string

// keyFlag registers -api-key into the shared apiKey variable.
func keyFlag(fs *flag.FlagSet) {
	fs.StringVar(&apiKey, "api-key", os.Getenv("CLUSTERCTL_API_KEY"),
		"tenant API key (default $CLUSTERCTL_API_KEY; empty for open-mode servers)")
}

// clientFlags registers the flags every day-2 subcommand shares.
func clientFlags(fs *flag.FlagSet) (server, id *string) {
	server = fs.String("server", "http://localhost:8080", "control-plane base URL")
	id = fs.String("id", "", "cluster ID (the deployment ID, e.g. d1)")
	keyFlag(fs)
	return server, id
}

// apiCall performs one JSON request. A 2xx decodes into out (when non-nil)
// and returns exit 0. A 409 whose body carries a deployment state prints
// the not-ready hint and returns exit 2; anything else prints the server's
// error and returns exit 1.
func apiCall(method, url string, body any, out any) int {
	var reader io.Reader
	if body != nil {
		payload, err := json.Marshal(body)
		if err != nil {
			fmt.Fprintln(os.Stderr, "clusterctl:", err)
			return 1
		}
		reader = bytes.NewReader(payload)
	}
	req, err := http.NewRequest(method, url, reader)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clusterctl:", err)
		return 1
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if apiKey != "" {
		req.Header.Set("Authorization", "Bearer "+apiKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clusterctl:", err)
		return 1
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clusterctl:", err)
		return 1
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if out != nil {
			if err := json.Unmarshal(raw, out); err != nil {
				fmt.Fprintln(os.Stderr, "clusterctl: bad response:", err)
				return 1
			}
		}
		return 0
	}
	var apiErr struct {
		Error string `json:"error"`
		State string `json:"state"`
		Hint  string `json:"hint"`
	}
	_ = json.Unmarshal(raw, &apiErr)
	if resp.StatusCode == http.StatusConflict && apiErr.State != "" {
		fmt.Fprintf(os.Stderr, "clusterctl: deployment is not ready (state %q)\n", apiErr.State)
		if apiErr.Hint != "" {
			fmt.Fprintln(os.Stderr, "clusterctl: hint:", apiErr.Hint)
		} else {
			fmt.Fprintln(os.Stderr, "clusterctl: hint: wait for the build to reach \"ready\" (clusterctl deploy -watch, or poll /api/v1/deployments)")
		}
		return 2
	}
	msg := apiErr.Error
	if msg == "" {
		msg = strings.TrimSpace(string(raw))
	}
	fmt.Fprintf(os.Stderr, "clusterctl: %s %s: %s (HTTP %d)\n", method, url, msg, resp.StatusCode)
	return 1
}

// requireID validates the shared -id flag.
func requireID(id string) bool {
	if id == "" {
		fmt.Fprintln(os.Stderr, "clusterctl: -id is required (the deployment ID, e.g. d1)")
		return false
	}
	return true
}

// jobJSON mirrors the API's job shape.
type jobJSON struct {
	ID        int      `json:"id"`
	Name      string   `json:"name"`
	User      string   `json:"user"`
	Cores     int      `json:"cores"`
	State     string   `json:"state"`
	Walltime  string   `json:"walltime"`
	Submitted string   `json:"submitted"`
	Started   string   `json:"started"`
	Ended     string   `json:"ended"`
	Nodes     []string `json:"nodes"`
}

func printJob(j jobJSON) {
	fmt.Printf("%-4d %-14s %-10s %-6d %-10s %-10s %v\n",
		j.ID, j.Name, j.User, j.Cores, j.State, j.Walltime, j.Nodes)
}

// jobsCmd dispatches `clusterctl jobs submit|ls|cancel`.
func jobsCmd(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "clusterctl jobs: need a subcommand: submit, ls, or cancel")
		return 1
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "submit":
		fs := flag.NewFlagSet("jobs submit", flag.ExitOnError)
		server, id := clientFlags(fs)
		name := fs.String("name", "job", "job name")
		user := fs.String("user", "nobody", "submitting user")
		cores := fs.Int("cores", 1, "cores requested")
		walltime := fs.Duration("walltime", time.Hour, "requested walltime limit")
		runtime := fs.Duration("runtime", 0, "actual simulated runtime (0 = half the walltime)")
		script := fs.String("script", "", "script label")
		fs.Parse(rest)
		if !requireID(*id) {
			return 1
		}
		body := map[string]any{
			"name": *name, "user": *user, "cores": *cores,
			"walltime": walltime.String(), "script": *script,
		}
		if *runtime > 0 {
			body["runtime"] = runtime.String()
		}
		var job jobJSON
		if code := apiCall("POST", *server+"/api/v1/clusters/"+*id+"/jobs", body, &job); code != 0 {
			return code
		}
		fmt.Printf("submitted job %d (%s) — state %s\n", job.ID, job.Name, job.State)
		return 0
	case "ls":
		fs := flag.NewFlagSet("jobs ls", flag.ExitOnError)
		server, id := clientFlags(fs)
		state := fs.String("state", "", "filter by state (queued, running, completed, cancelled, timeout)")
		fs.Parse(rest)
		if !requireID(*id) {
			return 1
		}
		url := *server + "/api/v1/clusters/" + *id + "/jobs"
		if *state != "" {
			url += "?state=" + *state
		}
		var list struct {
			Count int       `json:"count"`
			Jobs  []jobJSON `json:"jobs"`
		}
		if code := apiCall("GET", url, nil, &list); code != 0 {
			return code
		}
		fmt.Printf("%-4s %-14s %-10s %-6s %-10s %-10s %s\n",
			"ID", "NAME", "USER", "CORES", "STATE", "WALLTIME", "NODES")
		for _, j := range list.Jobs {
			printJob(j)
		}
		return 0
	case "cancel":
		fs := flag.NewFlagSet("jobs cancel", flag.ExitOnError)
		server, id := clientFlags(fs)
		job := fs.Int("job", 0, "job ID to cancel")
		fs.Parse(rest)
		if !requireID(*id) {
			return 1
		}
		if *job <= 0 {
			fmt.Fprintln(os.Stderr, "clusterctl jobs cancel: -job must be a positive job ID")
			return 1
		}
		var j jobJSON
		if code := apiCall("DELETE", fmt.Sprintf("%s/api/v1/clusters/%s/jobs/%d", *server, *id, *job), nil, &j); code != 0 {
			return code
		}
		fmt.Printf("cancelled job %d — state %s\n", j.ID, j.State)
		return 0
	}
	fmt.Fprintf(os.Stderr, "clusterctl jobs: unknown subcommand %q (use submit, ls, or cancel)\n", sub)
	return 1
}

// metricsCmd prints the cluster's monitoring snapshot.
func metricsCmd(args []string) int {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	server, id := clientFlags(fs)
	fs.Parse(args)
	if !requireID(*id) {
		return 1
	}
	var m struct {
		At           string   `json:"at"`
		ClusterLoad  float64  `json:"cluster_load"`
		ActiveAlerts []string `json:"active_alerts"`
		Nodes        []struct {
			Host       string  `json:"host"`
			Load       float64 `json:"load"`
			PowerWatts float64 `json:"power_watts"`
			Cores      int     `json:"cores"`
		} `json:"nodes"`
	}
	if code := apiCall("GET", *server+"/api/v1/clusters/"+*id+"/metrics", nil, &m); code != 0 {
		return code
	}
	fmt.Printf("cluster %s at %s: %d hosts reporting, mean load %.2f\n", *id, m.At, len(m.Nodes), m.ClusterLoad)
	for _, n := range m.Nodes {
		fmt.Printf("  %-16s load %.2f  %6.1f W  %d cores\n", n.Host, n.Load, n.PowerWatts, n.Cores)
	}
	if len(m.ActiveAlerts) > 0 {
		fmt.Printf("active alerts: %v\n", m.ActiveAlerts)
	}
	return 0
}

// validateCmd runs the HPL acceptance check.
func validateCmd(args []string) int {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	server, id := clientFlags(fs)
	fs.Parse(args)
	if !requireID(*id) {
		return 1
	}
	var v struct {
		N             int     `json:"n"`
		RpeakGF       float64 `json:"rpeak_gflops"`
		RmaxGF        float64 `json:"rmax_gflops"`
		Efficiency    float64 `json:"efficiency"`
		SmokeRun      bool    `json:"smoke_run"`
		SmokeN        int     `json:"smoke_n"`
		SmokeGFLOPS   float64 `json:"smoke_gflops"`
		SmokeResidual float64 `json:"smoke_residual"`
		SmokePass     bool    `json:"smoke_pass"`
	}
	if code := apiCall("POST", *server+"/api/v1/clusters/"+*id+"/validate", map[string]any{}, &v); code != 0 {
		return code
	}
	fmt.Printf("HPL model: N=%d Rpeak=%.1f GF Rmax=%.1f GF (%.1f%%)\n",
		v.N, v.RpeakGF, v.RmaxGF, 100*v.Efficiency)
	if v.SmokeRun {
		status := "PASSED"
		if !v.SmokePass {
			status = "FAILED"
		}
		fmt.Printf("measured smoke solve: N=%d %.2f GFLOPS, residual %.3g (%s)\n",
			v.SmokeN, v.SmokeGFLOPS, v.SmokeResidual, status)
	}
	if v.SmokeRun && !v.SmokePass {
		return 1
	}
	return 0
}

// advanceCmd moves the cluster's virtual clock forward.
func advanceCmd(args []string) int {
	fs := flag.NewFlagSet("advance", flag.ExitOnError)
	server, id := clientFlags(fs)
	by := fs.Duration("by", 30*time.Minute, "how much virtual time to advance")
	fs.Parse(args)
	if !requireID(*id) {
		return 1
	}
	var resp struct {
		VirtualNow string `json:"virtual_now"`
	}
	if code := apiCall("POST", *server+"/api/v1/clusters/"+*id+"/advance",
		map[string]string{"duration": by.String()}, &resp); code != 0 {
		return code
	}
	fmt.Printf("virtual time is now %s\n", resp.VirtualNow)
	return 0
}
