package work

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"net/http"
	"time"
)

// Stream ids keep the workloads' PCG sequences apart under one seed.
const (
	streamReadMix      = 0x726d
	streamLifecycle    = 0x6c63
	streamCrashRecover = 0x6372
)

const (
	deploymentBody = `{"cluster":"littlefe","scheduler":"torque"}`
	readyFrame     = "event: state\ndata: {\"state\":\"ready\"}"
)

// createReady posts a deployment and reads its event stream to the end,
// which the server closes once the build settles; there is no polling, so
// the request count per create is constant. It returns the new id.
func createReady(c *Conn, key string) (string, error) {
	body, err := c.Call(Request{Class: "create_deployment", Method: "POST", Path: "/api/v1/deployments",
		Body: deploymentBody, Key: key, Want: http.StatusAccepted}, "")
	if err != nil {
		return "", err
	}
	id := JSONString(body, "id")
	if id == "" {
		return "", fmt.Errorf("create deployment: no id in %.100s", body)
	}
	_, err = c.Call(Request{Class: "events_to_ready", Method: "GET", Path: "/api/v1/deployments/" + id + "/events",
		Key: key, Want: http.StatusOK}, readyFrame)
	return id, err
}

// ---- read_mix ----

// mixEntry is one request shape of the read mix. The first seven are the
// `clusterctl load` mix with its weights (its ?limit=10 page shrunk to 2 so
// that it really pages three fleets); the last two add the by-id and
// by-name reads. expect is a cheap content check on every response.
type mixEntry struct {
	class, method, path, body, expect string
	weight                            int
}

var readMixEntries = []mixEntry{
	{"list", "GET", "/api/v1/fleets", "", `"count":3`, 5},
	{"list", "GET", "/api/v1/deployments", "", `"count":2`, 4},
	{"page", "GET", "/api/v1/fleets?limit=2", "", `"next_cursor":2`, 2},
	{"list", "GET", "/api/v1/scenarios", "", `"campus-100"`, 2},
	{"discovery", "GET", "/api/v1/store", "", `"durable":true`, 1},
	{"discovery", "GET", "/api/v1", "", `"version":"v1"`, 1},
	{"depsolve", "POST", "/api/v1/depsolve", `{"install":["gromacs"]}`, `"gromacs`, 1},
	{"get", "GET", "/api/v1/deployments/d%d", "", `"state":"ready"`, 2},
	{"get", "GET", "/api/v1/repos/xsede/packages?name=gcc", "", `"name":"gcc"`, 2},
}

// readMixTenants is how many tenants read_mix rotates its keys across.
const readMixTenants = 16

type readMix struct {
	tenants int
	seq     []uint8 // seq[i] indexes readMixEntries
}

// ReadMixSequence is the request sequence of a read_mix run: whole blocks
// holding every entry exactly weight times, each block shuffled by the
// seed. Every stretch of the run therefore has the same composition and
// only the order depends on the seed.
func ReadMixSequence(seed uint64, ops int) []uint8 {
	var block []uint8
	for i, e := range readMixEntries {
		for range e.weight {
			block = append(block, uint8(i))
		}
	}
	rng := rand.New(rand.NewPCG(seed, streamReadMix))
	seq := make([]uint8, 0, ops+len(block))
	for len(seq) < ops {
		rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		seq = append(seq, block...)
	}
	return seq[:ops]
}

func newReadMix(seed uint64, ops int) Workload {
	return &readMix{tenants: readMixTenants, seq: ReadMixSequence(seed, ops)}
}

// Populate gives every tenant 3 unprovisioned 4-member fleets and 2 ready
// deployments.
func (w *readMix) Populate(c *Conn) error {
	for t := range w.tenants {
		key := TenantKey(t)
		for range 3 {
			if _, err := c.Call(Request{Class: "populate", Method: "POST", Path: "/api/v1/fleets",
				Body: `{"name":"rm","members":4,"cluster":"littlefe","nodes":4,"provision":false}`,
				Key:  key, Want: http.StatusAccepted}, ""); err != nil {
				return err
			}
		}
		for range 2 {
			if _, err := createReady(c, key); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *readMix) Op(c *Conn, i int) (time.Duration, error) {
	e := &readMixEntries[w.seq[i]]
	path := e.path
	if e.path == "/api/v1/deployments/d%d" {
		path = fmt.Sprintf(e.path, 1+i%2)
	}
	_, err := c.Call(Request{Class: e.class, Method: e.method, Path: path, Body: e.body,
		Key: TenantKey(i % w.tenants), Want: http.StatusOK}, e.expect)
	return 0, err
}

// ---- lifecycle ----

type lifecycle struct {
	cores []uint8 // job width per operation, from the seed
}

func newLifecycle(seed uint64, ops int) Workload {
	rng := rand.New(rand.NewPCG(seed, streamLifecycle))
	w := &lifecycle{cores: make([]uint8, ops)}
	for i := range w.cores {
		w.cores[i] = uint8(1 + rng.IntN(2))
	}
	return w
}

func (w *lifecycle) Populate(*Conn) error { return nil }

func (w *lifecycle) Op(c *Conn, i int) (time.Duration, error) {
	id, err := createReady(c, "")
	if err != nil {
		return 0, err
	}
	if _, err := c.Call(Request{Class: "submit_job", Method: "POST", Path: "/api/v1/clusters/" + id + "/jobs",
		Body: fmt.Sprintf(`{"cores":%d,"walltime":"1h"}`, w.cores[i]), Want: http.StatusCreated}, `"state":`); err != nil {
		return 0, err
	}
	if _, err := c.Call(Request{Class: "metrics", Method: "GET", Path: "/api/v1/clusters/" + id + "/metrics",
		Want: http.StatusOK}, `"nodes":[`); err != nil {
		return 0, err
	}
	_, err = c.Call(Request{Class: "delete", Method: "DELETE", Path: "/api/v1/deployments/" + id,
		Want: http.StatusNoContent}, "")
	return 0, err
}

// ---- fleet_scenario ----

// pollEvery is the fixed interval fleet_scenario polls at while a fleet
// or a scenario run settles.
const pollEvery = 2 * time.Millisecond

// pollLimit bounds one wait so a server that never settles fails the
// operation instead of hanging the run.
const pollLimit = 60 * time.Second

// tracePage is the ?limit= the scenario trace is paged with.
const tracePage = 100

type fleetScenario struct {
	seed uint64
	// TraceEvents is the event count of the first run's trace; every later
	// run must page exactly as many (the script and its seed are fixed).
	TraceEvents int
}

func newFleetScenario(seed uint64, _ int) Workload { return &fleetScenario{seed: seed} }

func (w *fleetScenario) Populate(*Conn) error { return nil }

// pollUntil repeats a GET every pollEvery until done reports true.
func pollUntil(c *Conn, r Request, done func(body []byte) bool) ([]byte, error) {
	deadline := time.Now().Add(pollLimit)
	for {
		body, err := c.Call(r, "")
		if err != nil {
			return nil, err
		}
		if done(body) {
			return body, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%s %s: not settled after %v", r.Method, r.Path, pollLimit)
		}
		time.Sleep(pollEvery)
	}
}

// fleetWithRun creates a fleet, polls until it has settled with all
// members ready, starts a built-in scenario on it and polls until that run
// has passed. It returns the fleet's and the run's paths. class names the
// route class each step is timed under.
func fleetWithRun(c *Conn, class func(step string) string, fleetBody string, members int, scenario string) (fleet, run string, err error) {
	body, err := c.Call(Request{Class: class("create_fleet"), Method: "POST", Path: "/api/v1/fleets",
		Body: fleetBody, Want: http.StatusAccepted}, "")
	if err != nil {
		return "", "", err
	}
	fleet = "/api/v1/fleets/" + JSONString(body, "id")
	body, err = pollUntil(c, Request{Class: class("poll_fleet"), Method: "GET", Path: fleet, Want: http.StatusOK},
		func(b []byte) bool { return bytes.Contains(b, []byte(`"settled":true`)) })
	if err != nil {
		return "", "", err
	}
	if !bytes.Contains(body, fmt.Appendf(nil, `"ready":%d,`, members)) {
		return "", "", fmt.Errorf("fleet settled without %d ready members: %.200s", members, body)
	}
	body, err = c.Call(Request{Class: class("run_scenario"), Method: "POST", Path: fleet + "/scenarios",
		Body: `{"name":"` + scenario + `"}`, Want: http.StatusAccepted}, `"state":"running"`)
	if err != nil {
		return "", "", err
	}
	run = fleet + "/scenarios/" + JSONString(body, "id")
	body, err = pollUntil(c, Request{Class: class("poll_run"), Method: "GET", Path: run + "?limit=1", Want: http.StatusOK},
		func(b []byte) bool { return !bytes.Contains(b, []byte(`"state":"running"`)) })
	if err != nil {
		return "", "", err
	}
	if !bytes.Contains(body, []byte(`"state":"passed"`)) {
		return "", "", fmt.Errorf("%s did not pass: %.300s", scenario, body)
	}
	return fleet, run, nil
}

func (w *fleetScenario) Op(c *Conn, i int) (time.Duration, error) {
	fleet, run, err := fleetWithRun(c, func(step string) string { return step },
		fmt.Sprintf(`{"name":"fs%d-%d","members":100,"cluster":"littlefe","nodes":4,"parallelism":4,"workers":8}`, w.seed, i),
		100, "campus-100")
	if err != nil {
		return 0, err
	}
	var body []byte
	events := 0
	for cursor := 0; ; {
		body, err = c.Call(Request{Class: "trace_page", Method: "GET",
			Path: fmt.Sprintf("%s?cursor=%d&limit=%d", run, cursor, tracePage), Want: http.StatusOK}, "")
		if err != nil {
			return 0, err
		}
		next := JSONInt(body, "next_cursor")
		if next <= cursor {
			break
		}
		events += bytes.Count(body, []byte(`"seq":`))
		cursor = next
	}
	// The run list reports the trace length without carrying the events; the
	// run's own next_cursor follows "runs" (the envelope's sorts before it).
	body, err = c.Call(Request{Class: "list_runs", Method: "GET", Path: fleet + "/scenarios", Want: http.StatusOK}, `"runs":[`)
	if err != nil {
		return 0, err
	}
	total := JSONInt(body[bytes.Index(body, []byte(`"runs":[`)):], "next_cursor")
	if events == 0 || total != events {
		return 0, fmt.Errorf("paged %d trace events, run list reports %d", events, total)
	}
	if w.TraceEvents == 0 {
		w.TraceEvents = events
	} else if events != w.TraceEvents {
		return 0, fmt.Errorf("trace has %d events, the first run had %d", events, w.TraceEvents)
	}
	_, err = c.Call(Request{Class: "delete", Method: "DELETE", Path: fleet, Want: http.StatusNoContent}, "")
	return 0, err
}

// TraceEventsOf reports the per-run trace event count a fleet_scenario
// workload observed, 0 for any other workload.
func TraceEventsOf(w Workload) int {
	if fs, ok := w.(*fleetScenario); ok {
		return fs.TraceEvents
	}
	return 0
}

// ---- crash_recover ----

const (
	standingDeployments = 64
	createsPerCycle     = 4
	jobsPerCycle        = 2
)

type crashRecover struct {
	targets []uint8 // standing deployment (0-based) each job submit goes to
	prev    []string
	jobs    [standingDeployments]int // acked submits per standing deployment
}

func newCrashRecover(seed uint64, ops int) Workload {
	rng := rand.New(rand.NewPCG(seed, streamCrashRecover))
	w := &crashRecover{targets: make([]uint8, ops*jobsPerCycle)}
	for i := range w.targets {
		w.targets[i] = uint8(rng.IntN(standingDeployments))
	}
	return w
}

// Populate builds 64 ready deployments and one settled 20-member fleet
// with one finished rolling-update run.
func (w *crashRecover) Populate(c *Conn) error {
	for i := range standingDeployments {
		id, err := createReady(c, "")
		if err != nil {
			return err
		}
		if want := fmt.Sprintf("d%d", i+1); id != want {
			return fmt.Errorf("standing deployment %d got id %s, want %s", i, id, want)
		}
	}
	_, _, err := fleetWithRun(c, func(string) string { return "populate" },
		`{"name":"standing","members":20,"cluster":"littlefe","nodes":3}`, 20, "rolling-update")
	return err
}

// Op makes ten acked mutations (4 creates awaited ready, 2 job submits,
// delete of the previous cycle's 4 creates), crashes the server right
// after the last ack, restarts it on the same DataDir and audits what it
// recovered. The latency is kill → first healthy response.
func (w *crashRecover) Op(c *Conn, i int) (time.Duration, error) {
	created := make([]string, 0, createsPerCycle)
	for range createsPerCycle {
		id, err := createReady(c, "")
		if err != nil {
			return 0, err
		}
		created = append(created, id)
	}
	touched := w.targets[i*jobsPerCycle : (i+1)*jobsPerCycle]
	for _, t := range touched {
		if _, err := c.Call(Request{Class: "submit_job", Method: "POST",
			Path: fmt.Sprintf("/api/v1/clusters/d%d/jobs", t+1),
			Body: `{"cores":1,"walltime":"1h"}`, Want: http.StatusCreated}, `"state":`); err != nil {
			return 0, err
		}
		w.jobs[t]++
	}
	deleted := w.prev
	for _, id := range deleted {
		if _, err := c.Call(Request{Class: "delete", Method: "DELETE", Path: "/api/v1/deployments/" + id,
			Want: http.StatusNoContent}, ""); err != nil {
			return 0, err
		}
	}
	w.prev = created

	lat, err := c.Restart()
	if err != nil {
		return 0, err
	}

	body, err := c.Call(Request{Class: "audit", Method: "GET", Path: "/api/v1/deployments?limit=1000", Want: http.StatusOK}, "")
	if err != nil {
		return lat, err
	}
	if err := AuditRecovery(DeploymentIDs(body), created, deleted, standingDeployments+createsPerCycle); err != nil {
		return lat, err
	}
	for _, t := range touched {
		body, err := c.Call(Request{Class: "audit", Method: "GET",
			Path: fmt.Sprintf("/api/v1/clusters/d%d/jobs", t+1), Want: http.StatusOK}, "")
		if err != nil {
			return lat, err
		}
		if got := bytes.Count(body, []byte(`"walltime":`)); got != w.jobs[t] {
			return lat, fmt.Errorf("d%d recovered %d jobs, %d submits were acked", t+1, got, w.jobs[t])
		}
	}
	_, err = c.Call(Request{Class: "audit", Method: "GET", Path: "/api/v1/fleets", Want: http.StatusOK}, `"scenarios":1`)
	return lat, err
}

// DeploymentIDs pulls the ids out of a GET /api/v1/deployments listing.
func DeploymentIDs(listing []byte) []string {
	var ids []string
	key := []byte(`{"id":"`)
	for {
		i := bytes.Index(listing, key)
		if i < 0 {
			return ids
		}
		listing = listing[i+len(key):]
		j := bytes.IndexByte(listing, '"')
		if j < 0 {
			return ids
		}
		ids = append(ids, string(listing[:j]))
	}
}

// AuditRecovery is the acked-write audit of crash_recover: after a crash
// and restart every acked create must exist, every acked delete must be
// gone, and the population must be exactly wantCount deployments.
func AuditRecovery(recovered, ackedCreates, ackedDeletes []string, wantCount int) error {
	have := make(map[string]bool, len(recovered))
	for _, id := range recovered {
		have[id] = true
	}
	for _, id := range ackedCreates {
		if !have[id] {
			return fmt.Errorf("acked create %s was lost in the crash", id)
		}
	}
	for _, id := range ackedDeletes {
		if have[id] {
			return fmt.Errorf("acked delete of %s was undone by recovery", id)
		}
	}
	if len(recovered) != wantCount {
		return fmt.Errorf("recovered %d deployments, want %d", len(recovered), wantCount)
	}
	return nil
}
