// Command layerprobe times the layers underneath repo-server from the
// outside, in process, through their public functions, on the inputs the
// benchmark's workloads use. The driver (bench --trace 1) builds it, runs
// it as a child and merges the JSON it prints with the traced end-to-end
// run. It is its own program so that the end-to-end driver imports the
// standard library only and keeps working when an internal API moves.
//
// It deliberately imports neither internal/sim nor internal/scenario:
// internal/analysis keeps a closed list of the packages that may, and this
// benchmark may not edit it. core, provision, fleet and scenario are
// therefore reached through pkg/xcbc, the SDK the API server itself uses.
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
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"xcbc/bench/work"
	"xcbc/internal/depsolve"
	"xcbc/internal/orchestrator"
	"xcbc/internal/repo"
	"xcbc/internal/rpm"
	"xcbc/internal/wal"
	"xcbc/pkg/xcbc"
	"xcbc/pkg/xcbc/api"
)

func main() {
	tmp := flag.String("tmp", "", "scratch directory for DataDirs and probe logs (required)")
	walDir := flag.String("waldir", "", "WAL directory of the traced end-to-end run: the wal probes replay its record types and sizes")
	seed := flag.Uint64("seed", 1, "workload seed")
	flag.Parse()
	if *tmp == "" {
		fmt.Fprintln(os.Stderr, "layerprobe: -tmp is required")
		os.Exit(2)
	}
	out, err := run(*tmp, *walDir, *seed)
	if err == nil {
		err = json.NewEncoder(os.Stdout).Encode(out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "layerprobe:", err)
		os.Exit(1)
	}
}

// run works from inside the scratch directory with relative paths: GET
// /api/v1/store echoes its DataDir, and api.resp_bytes_per_op must not
// depend on where the checkout lives.
func run(tmp, walDir string, seed uint64) (*work.ProbeOutput, error) {
	if walDir != "" {
		abs, err := filepath.Abs(walDir)
		if err != nil {
			return nil, err
		}
		walDir = abs
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	if err := os.Chdir(tmp); err != nil {
		return nil, err
	}
	out := &work.ProbeOutput{Metrics: make(map[string]float64), InProcess: make(map[string]*work.InProcessRun)}
	return out, probeAll(".", walDir, seed, out)
}

func probeAll(tmp, walDir string, seed uint64, out *work.ProbeOutput) error {
	m := out.Metrics
	rec := work.NewRecorder(4096)
	// core first: core.build_first_ms is the first build in the process.
	if err := probeCore(m, rec); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	out.Spans = rec.Spans()
	if err := probeDepsolve(m); err != nil {
		return fmt.Errorf("depsolve: %w", err)
	}
	probeOrchestrator(m)
	if err := probeFleet(m); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	if err := probeWAL(filepath.Join(tmp, "wal"), walShapes(walDir), m); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := probeTenantScale(m); err != nil {
		return fmt.Errorf("tenant scale: %w", err)
	}
	for _, spec := range work.Specs {
		ip, err := runInProcess(spec, filepath.Join(tmp, "inproc-"+spec.Name), seed)
		if err != nil {
			return fmt.Errorf("in-process %s: %w", spec.Name, err)
		}
		out.InProcess[spec.Name] = ip
	}
	// The api.* route classes, each from the workload that issues it.
	class := func(workload, name string) float64 {
		for _, c := range out.InProcess[workload].Classes {
			if c.Name == name {
				return c.P50Ms
			}
		}
		return 0
	}
	for _, name := range []string{"list", "page", "get", "discovery", "depsolve"} {
		m["api."+name+"_ms"] = class("read_mix", name)
	}
	for _, name := range []string{"create_deployment", "events_to_ready", "submit_job", "metrics", "delete"} {
		m["api."+name+"_ms"] = class("lifecycle", name)
	}
	m["api.trace_page_ms"] = class("fleet_scenario", "trace_page")
	m["api.open_ms"] = class("crash_recover", "restart")
	m["api.resp_bytes_per_op"] = out.InProcess["read_mix"].RespBytesPerOp
	if got, want := out.InProcess["fleet_scenario"].TraceEvents, int(m["scenario.trace_events_per_run"]); got != want {
		return fmt.Errorf("the API paged %d campus-100 trace events, the SDK run has %d", got, want)
	}
	return nil
}

// p50 returns the median of durs in the given unit.
func p50(durs []time.Duration, unit time.Duration) float64 {
	slices.Sort(durs)
	return float64(work.Percentile(durs, 0.5)) / float64(unit)
}

// timeN calls fn n times and returns each call's duration.
func timeN(n int, fn func() error) ([]time.Duration, error) {
	durs := make([]time.Duration, n)
	for i := range durs {
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		durs[i] = time.Since(t0)
	}
	return durs, nil
}

// ---- core, provision (through xcbc.Builder.Deploy and its progress events) ----

func probeCore(m map[string]float64, rec *work.Recorder) error {
	ctx := context.Background()
	var installs []time.Duration
	build := func(op int32) (*xcbc.Deployment, time.Duration, error) {
		// The stage events core.BuildXCBCContext emits bound the spans:
		// "distribution" ends distribution assembly and starts the
		// provision.Installer work (frontend, then compute waves), whose
		// last event precedes "subsystems".
		root := rec.Begin("core.build", -1, op)
		child := rec.Begin("core.distribution", root, op)
		var installStart, lastInstall time.Time
		d, err := xcbc.NewXCBC(xcbc.WithCluster("littlefe"), xcbc.WithScheduler("torque"),
			xcbc.WithProgress(func(ev xcbc.Event) {
				now := time.Now()
				switch ev.Stage {
				case "distribution":
					rec.End(child)
					child = rec.Begin("provision.install", root, op)
					installStart = now
				case "subsystems":
					rec.End(child)
					child = -1
				default:
					lastInstall = now
				}
			})).Deploy(ctx)
		rec.End(child)
		rec.End(root)
		if err != nil {
			return nil, 0, err
		}
		return d, lastInstall.Sub(installStart), nil
	}
	t0 := time.Now()
	if _, _, err := build(0); err != nil {
		return err
	}
	m["core.build_first_ms"] = work.Ms(time.Since(t0))
	var d *xcbc.Deployment
	op := int32(0)
	builds, err := timeN(40, func() error {
		op++
		var install time.Duration
		var err error
		d, install, err = build(op)
		installs = append(installs, install)
		return err
	})
	if err != nil {
		return err
	}
	m["core.build_littlefe_ms"] = p50(builds, time.Millisecond)
	m["provision.install_all_waves_ms"] = p50(installs, time.Millisecond)

	cl := d.Open()
	submits, err := timeN(200, func() error {
		_, err := cl.SubmitJob(xcbc.JobSpec{Cores: 1, Walltime: time.Hour})
		return err
	})
	if err != nil {
		return err
	}
	m["core.ops_submit_job_us"] = p50(submits, time.Microsecond)
	polls, _ := timeN(200, func() error { cl.Metrics(); return nil })
	m["core.ops_metrics_us"] = p50(polls, time.Microsecond)
	return nil
}

// xnitSet is the repository set repo-server resolves against.
func xnitSet() (*repo.Repository, *repo.Set, error) {
	xnit, err := xcbc.NewXNITRepository()
	if err != nil {
		return nil, nil, err
	}
	set := repo.NewSet()
	set.Add(repo.Config{Repo: xnit, Priority: xcbc.XNITPriority, Enabled: true, GPGCheck: true})
	return xnit, set, nil
}

func probeDepsolve(m map[string]float64) error {
	_, set, err := xnitSet()
	if err != nil {
		return err
	}
	durs, err := timeN(300, func() error {
		_, err := depsolve.New(set, rpm.NewDB()).Install("gromacs")
		return err
	})
	if err != nil {
		return err
	}
	m["depsolve.install_gromacs_us"] = p50(durs, time.Microsecond)
	return nil
}

// ---- orchestrator ----

func probeOrchestrator(m map[string]float64) {
	ctx := context.Background()
	o := orchestrator.New(2)
	noop := func(context.Context, func(orchestrator.Event) int) (any, error) { return nil, nil }
	durs, _ := timeN(3000, func() error {
		_, err := o.Submit(ctx, "noop", 0, noop).Wait(ctx)
		return err
	})
	m["orchestrator.submit_settle_us"] = p50(durs, time.Microsecond)

	const appends = 1 << 20
	j := orchestrator.NewJournal(64)
	ev := orchestrator.Event{Stage: "compute", Node: "compute-0-1", Message: "kickstarted", Packages: 127}
	t0 := time.Now()
	for range appends {
		j.Append(ev)
	}
	m["orchestrator.journal_append_ns"] = float64(time.Since(t0)) / appends
}

// ---- fleet, scenario (through the SDK) ----

func probeFleet(m map[string]float64) error {
	ctx := context.Background()
	sc, err := xcbc.BuiltinScenario("campus-100")
	if err != nil {
		return err
	}
	// The fleet campus-100 is written for, which fleet_scenario creates
	// over the API.
	spec := sc.FleetSpec()
	spec.Name = "probe"
	const rounds = 5 // the first, cold round also fills the process-wide caches and is left out
	var provisions, runs []time.Duration
	var allocs, retained []float64
	var before, after runtime.MemStats
	for i := range rounds {
		runtime.GC()
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		fl, err := xcbc.NewFleet(spec)
		if err != nil {
			return err
		}
		if err := fl.Deploy(ctx); err != nil {
			return err
		}
		took := time.Since(t0)
		runtime.ReadMemStats(&after)
		mallocs := after.Mallocs - before.Mallocs
		runtime.GC()
		runtime.ReadMemStats(&after)
		if st := fl.Status(); st.Ready != spec.Members {
			return fmt.Errorf("fleet settled with %d of %d members ready", st.Ready, spec.Members)
		}
		t0 = time.Now()
		res, err := fl.RunScenario(ctx, sc)
		if err != nil {
			return err
		}
		ran := time.Since(t0)
		if !res.Passed() {
			return fmt.Errorf("campus-100 failed in process: %v", res.Violations())
		}
		m["scenario.trace_events_per_run"] = float64(len(res.Trace()))
		runtime.KeepAlive(fl)
		if i == 0 {
			continue
		}
		provisions, runs = append(provisions, took), append(runs, ran)
		allocs = append(allocs, float64(mallocs)/float64(spec.Members))
		retained = append(retained, float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/1024/float64(spec.Members))
	}
	m["fleet.provision100_ms"] = p50(provisions, time.Millisecond)
	m["fleet.allocs_per_member"] = work.Median(allocs)
	m["fleet.retained_kb_per_member"] = work.Median(retained)
	m["scenario.run_campus100_ms"] = p50(runs, time.Millisecond)
	return nil
}

// ---- wal ----

// shape is the type and payload size of one WAL record.
type shape struct {
	typ  string
	size int
}

// walShapes reads the record types and sizes back from the WAL a workload's
// own server left behind. Without one (or when a snapshot has just
// truncated it) the probes fall back to one typical event record.
func walShapes(dir string) []shape {
	fallback := []shape{{"deployment.event", 160}}
	if dir == "" {
		return fallback
	}
	log, rec, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		return fallback
	}
	if err := log.Close(); err != nil || len(rec.Records) == 0 {
		return fallback
	}
	shapes := make([]shape, 0, min(len(rec.Records), 4096))
	for _, r := range rec.Records[:cap(shapes)] {
		shapes = append(shapes, shape{r.Type, len(r.Data)})
	}
	return shapes
}

func probeWAL(dir string, shapes []shape, m map[string]float64) error {
	payload := bytes.Repeat([]byte("x"), 1<<16)
	data := func(i int) (string, []byte) {
		s := shapes[i%len(shapes)]
		return s.typ, payload[:min(s.size, len(payload))]
	}
	appendN := func(log *wal.Log, n int) (time.Duration, error) {
		t0 := time.Now()
		for i := range n {
			if _, err := log.Append(data(i)); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}

	// Default SyncEvery, real fsync: what repo-server runs with.
	const synced = 2048
	log, _, err := wal.Open(filepath.Join(dir, "sync"), wal.Options{})
	if err != nil {
		return err
	}
	d, err := appendN(log, synced)
	if err != nil {
		return errors.Join(err, log.Close())
	}
	m["wal.append_us"] = float64(d) / synced / float64(time.Microsecond)
	if err := log.Close(); err != nil {
		return err
	}

	// Recovery of those 2048 records.
	var opens []time.Duration
	for range 5 {
		t0 := time.Now()
		l, _, err := wal.Open(filepath.Join(dir, "sync"), wal.Options{})
		if err != nil {
			return err
		}
		opens = append(opens, time.Since(t0))
		if err := l.Close(); err != nil {
			return err
		}
	}
	m["wal.open_ms"] = p50(opens, time.Millisecond)
	if log, _, err = wal.Open(filepath.Join(dir, "sync"), wal.Options{}); err != nil {
		return err
	}

	fsyncs, err := timeN(32, func() error {
		if _, err := log.Append(data(0)); err != nil {
			return err
		}
		return log.Sync()
	})
	if err != nil {
		return errors.Join(err, log.Close())
	}
	// One buffered append costs well under a microsecond of the interval.
	m["wal.fsync_ms"] = p50(fsyncs, time.Millisecond)

	const batches, batch = 32, 64
	entries := make([]wal.BatchEntry, batch)
	for i := range entries {
		entries[i].Type, entries[i].Data = data(i)
	}
	t0 := time.Now()
	for range batches {
		if _, err := log.AppendBatch(entries); err != nil {
			return errors.Join(err, log.Close())
		}
	}
	m["wal.batch64_us_per_record"] = float64(time.Since(t0)) / (batches * batch) / float64(time.Microsecond)

	// A snapshot the size repo-server writes for a few dozen resources.
	state := payload[:16<<10]
	snaps, err := timeN(8, func() error {
		if _, err := log.Append(data(0)); err != nil {
			return err
		}
		return log.Snapshot(state)
	})
	if err != nil {
		return errors.Join(err, log.Close())
	}
	m["wal.snapshot_ms"] = p50(snaps, time.Millisecond)
	if err := log.Close(); err != nil {
		return err
	}

	// Framing cost alone.
	const unsynced = 20000
	log, _, err = wal.Open(filepath.Join(dir, "nosync"), wal.Options{NoSync: true})
	if err != nil {
		return err
	}
	d, err = appendN(log, unsynced)
	if err != nil {
		return errors.Join(err, log.Close())
	}
	m["wal.append_nosync_us"] = float64(d) / unsynced / float64(time.Microsecond)
	return log.Close()
}

// ---- api ----

// handlerEnv is the in-process work.Doer: requests go straight into
// api.Server.Handler, no sockets. It also restarts the server (close, then
// api.Open on the same DataDir) for crash_recover.
type handlerEnv struct {
	cfg api.Config
	srv *api.Server
	w   respWriter
}

// respWriter is a reusable http.ResponseWriter that keeps the status and
// the body; it flushes (the SSE route requires it) by doing nothing.
type respWriter struct {
	hdr    http.Header
	status int
	buf    bytes.Buffer
}

func (w *respWriter) Header() http.Header { return w.hdr }
func (w *respWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}
func (w *respWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.buf.Write(p)
}
func (w *respWriter) Flush() {}

func (e *handlerEnv) Do(r *work.Request) (int, []byte, error) {
	var body io.Reader
	if r.Body != "" {
		body = strings.NewReader(r.Body)
	}
	req, err := http.NewRequest(r.Method, r.Path, body)
	if err != nil {
		return 0, nil, err
	}
	if r.Body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	if r.Key != "" {
		req.Header.Set("Authorization", "Bearer "+r.Key)
	}
	if e.w.hdr == nil {
		e.w.hdr = make(http.Header)
	}
	clear(e.w.hdr)
	e.w.status = 0
	e.w.buf.Reset()
	e.srv.Handler().ServeHTTP(&e.w, req)
	e.w.WriteHeader(http.StatusOK)
	return e.w.status, e.w.buf.Bytes(), nil
}

func (e *handlerEnv) restart() (time.Duration, error) {
	if err := e.srv.Close(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	srv, _, err := api.Open(e.cfg)
	if err != nil {
		return 0, err
	}
	e.srv = srv
	return time.Since(t0), nil
}

// inProcessOps is how many measured operations each workload runs in
// process: enough for a steady median, cheap enough for every traced run.
var inProcessOps = map[string]int{"read_mix": 4000, "lifecycle": 300, "fleet_scenario": 8, "crash_recover": 8}

func runInProcess(spec *work.Spec, dataDir string, seed uint64) (*work.InProcessRun, error) {
	xnit, _, err := xnitSet()
	if err != nil {
		return nil, err
	}
	cfg := api.Config{Repos: []*repo.Repository{xnit}, DataDir: dataDir}
	for i := range spec.Tenants {
		cfg.Tenants = append(cfg.Tenants, api.TenantConfig{Name: work.TenantName(i), Key: work.TenantKey(i)})
	}
	if spec.Name == "read_mix" {
		// A fixed clock makes every timestamp, and so the response byte
		// count, repeat exactly.
		fixed := time.Date(2015, 9, 8, 0, 0, 0, 0, time.UTC)
		cfg.Clock = func() time.Time { return fixed }
	}
	srv, _, err := api.Open(cfg)
	if err != nil {
		return nil, err
	}
	env := &handlerEnv{cfg: cfg, srv: srv}
	defer func() { _ = env.srv.Close() }() // the probe's DataDir is scratch; nothing reads it again

	ops := inProcessOps[spec.Name]
	warm := work.Warmup(ops)
	rec := work.NewRecorder((warm + ops + 1) * spec.SpansPerOp)
	conn := work.NewConn(env, rec, env.restart)
	runner := &work.Runner{W: spec.New(seed, warm+ops), Conns: []*work.Conn{conn}}
	if err := runner.Populate(); err != nil {
		return nil, err
	}
	runner.Run(0, warm)
	bytes0 := conn.Bytes
	samples := runner.Run(warm, warm+ops)
	if runner.Failed() > 0 {
		return nil, fmt.Errorf("%d operations failed: %v", runner.Failed(), runner.Errors())
	}
	return &work.InProcessRun{
		Ops:            ops,
		OpP50Ms:        work.Ms(work.Percentile(work.Latencies(samples), 0.5)),
		Classes:        work.Summarize(rec.Spans(), int32(warm), ops),
		RespBytesPerOp: float64(conn.Bytes-bytes0) / float64(ops),
		TraceEvents:    work.TraceEventsOf(runner.W),
		DroppedSpans:   rec.Dropped(),
	}, nil
}

// probeTenantScale compares the list route's latency at 64 tenants with 1:
// admission hashes the key and compares it against every tenant's.
func probeTenantScale(m map[string]float64) error {
	xnit, _, err := xnitSet()
	if err != nil {
		return err
	}
	var envs [2]*handlerEnv
	var reqs [2]*work.Request
	for i, n := range []int{1, 64} {
		cfg := api.Config{Repos: []*repo.Repository{xnit}}
		for t := range n {
			cfg.Tenants = append(cfg.Tenants, api.TenantConfig{Name: work.TenantName(t), Key: work.TenantKey(t)})
		}
		envs[i] = &handlerEnv{srv: api.New(cfg)}
		for t := range n {
			for range 3 {
				status, body, _ := envs[i].Do(&work.Request{Method: "POST", Path: "/api/v1/fleets", Key: work.TenantKey(t),
					Body: `{"name":"ts","members":4,"cluster":"littlefe","nodes":4,"provision":false}`})
				if status != http.StatusAccepted {
					return fmt.Errorf("populating %d tenants: status %d: %.200s", n, status, body)
				}
			}
		}
		reqs[i] = &work.Request{Method: "GET", Path: "/api/v1/fleets", Key: work.TenantKey(n - 1)}
	}
	// Alternate the two servers in short rounds so drift hits both alike.
	var durs [2][]time.Duration
	for range 8 {
		for i := range envs {
			d, err := timeN(250, func() error {
				if status, _, _ := envs[i].Do(reqs[i]); status != http.StatusOK {
					return fmt.Errorf("GET /api/v1/fleets: status %d", status)
				}
				return nil
			})
			if err != nil {
				return err
			}
			durs[i] = append(durs[i], d...)
		}
	}
	m["api.tenant_scale_ratio"] = p50(durs[1], time.Microsecond) / p50(durs[0], time.Microsecond)
	return nil
}
