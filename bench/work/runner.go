package work

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Request is one HTTP request of a workload. Class names the route class
// the request is timed under (api.<class>_ms in the layer table).
type Request struct {
	Class  string
	Method string
	Path   string
	Body   string
	Key    string // tenant API key; empty in open mode
	Want   int    // the only status that counts as success
}

// Doer issues one request and returns the status and the whole response
// body; the body is only valid until the next call. The driver's
// keep-alive loopback client and the layer probe's direct call into
// api.Server.Handler are the two implementations.
type Doer interface {
	Do(r *Request) (status int, body []byte, err error)
}

// Conn is one closed-loop client: it sends a request, waits for the reply,
// checks it, and only then sends the next. One goroutine owns a Conn.
type Conn struct {
	doer Doer
	rec  *Recorder
	// restart crashes and restarts the server under test and returns the
	// time from the kill to the first healthy response. Only crash_recover
	// calls it.
	restart func() (time.Duration, error)

	op     int32 // operation the current requests belong to
	opSpan int32
	Bytes  int64 // response body bytes received
	Calls  int64 // requests issued
}

// NewConn wires a client. rec may be nil (untraced); restart may be nil
// for workloads that never crash the server.
func NewConn(d Doer, rec *Recorder, restart func() (time.Duration, error)) *Conn {
	return &Conn{doer: d, rec: rec, restart: restart, opSpan: -1}
}

// Call issues one request and fails unless the status is r.Want and the
// body contains expect (empty: no content check).
func (c *Conn) Call(r Request, expect string) ([]byte, error) {
	sp := c.rec.Begin(r.Class, c.opSpan, c.op)
	status, body, err := c.doer.Do(&r)
	c.rec.End(sp)
	c.Calls++
	c.Bytes += int64(len(body))
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", r.Method, r.Path, err)
	}
	if status != r.Want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %.200s", r.Method, r.Path, status, r.Want, body)
	}
	if expect != "" && !bytes.Contains(body, []byte(expect)) {
		return nil, fmt.Errorf("%s %s: body lacks %q: %.200s", r.Method, r.Path, expect, body)
	}
	return body, nil
}

// Restart crashes and restarts the server under test.
func (c *Conn) Restart() (time.Duration, error) {
	if c.restart == nil {
		return 0, fmt.Errorf("this environment cannot restart the server")
	}
	sp := c.rec.Begin("restart", c.opSpan, c.op)
	d, err := c.restart()
	c.rec.End(sp)
	return d, err
}

// Workload is one traffic shape. Populate loads the standing state and
// returns once it has settled; Op runs operation i and returns its latency,
// or 0 to have the runner use the operation's wall time. Operation i is a
// pure function of the seed the workload was built with.
type Workload interface {
	Populate(c *Conn) error
	Op(c *Conn, i int) (time.Duration, error)
}

// Runner drives a workload's operations through a fixed set of clients.
type Runner struct {
	W     Workload
	Conns []*Conn

	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	errs      []string
}

// Attempted and Failed count operations, population included; an
// operation fails on a transport error, an unexpected status or a failed
// correctness check, and is never retried.
func (r *Runner) Attempted() int { return int(r.attempted.Load()) }
func (r *Runner) Failed() int    { return int(r.failed.Load()) }

// Errors returns the first few failure messages.
func (r *Runner) Errors() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.errs...)
}

func (r *Runner) fail(err error) {
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
	r.mu.Unlock()
}

// Populate loads the workload's standing state through the first client.
func (r *Runner) Populate() error {
	r.attempted.Add(1)
	r.Conns[0].op = -1
	if err := r.W.Populate(r.Conns[0]); err != nil {
		r.fail(err)
		return err
	}
	return nil
}

// Run executes operations from..to-1 and returns one sample per
// operation, indexed by operation. The clients take the next operation
// index from a shared counter, so which operations run is fixed by the
// seed while which client runs each is not.
func (r *Runner) Run(from, to int) []Sample {
	samples := make([]Sample, to-from)
	var next atomic.Int64
	next.Store(int64(from))
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range r.Conns {
		wg.Add(1)
		go func(c *Conn) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= to {
					return
				}
				r.attempted.Add(1)
				c.op = int32(i)
				c.opSpan = c.rec.Begin("op", -1, c.op)
				t0 := time.Now()
				lat, err := r.W.Op(c, i)
				end := time.Now()
				c.rec.End(c.opSpan)
				c.opSpan = -1
				if err != nil {
					r.fail(fmt.Errorf("op %d: %w", i, err))
				}
				if lat == 0 {
					lat = end.Sub(t0)
				}
				samples[i-from] = Sample{End: end.Sub(start), Lat: lat}
			}
		}(c)
	}
	wg.Wait()
	return samples
}

// Spec describes one workload of the benchmark.
type Spec struct {
	Name string
	// Why records what the workload is for; BENCHMARK.json repeats it.
	Why     string
	Clients int // closed-loop clients, at most nproc on the 2-core box
	Tenants int // 0 = open mode
	// OpsPerSecond converts the run length into the fixed operation count
	// of the measured phase. It is the rate the 2-core reference box
	// sustains, frozen here so that a run is a count, never a timer: a
	// faster server finishes the same work sooner.
	OpsPerSecond float64
	// MinOps is the floor under the count, so the tail percentile always
	// has samples beyond it.
	MinOps int
	// SpansPerOp bounds the spans one operation records in a traced run.
	SpansPerOp int
	New        func(seed uint64, ops int) Workload
}

// MeasuredOps is the operation count of the measured phase for a run
// length; Warmup is the count run before it and excluded.
func (s *Spec) MeasuredOps(seconds float64) int {
	return max(s.MinOps, int(s.OpsPerSecond*seconds+0.5))
}

// Warmup is the number of operations run, and left out, before the
// measured phase: a tenth of it.
func Warmup(measured int) int { return max(measured/10, 1) }

// Specs lists the workloads in the order they run.
var Specs = []*Spec{
	{
		Name: "read_mix", Clients: 2, Tenants: readMixTenants, OpsPerSecond: 8000, MinOps: 5000, SpansPerOp: 4,
		Why: "Weighted read mix on a 16-tenant durable server, 2 clients: admission, mux, handler and JSON encode, zero WAL appends, so store and WAL changes must leave it flat; 8000 ops per run second, tail p99",
		New: newReadMix,
	},
	{
		Name: "lifecycle", Clients: 2, OpsPerSecond: 520, MinOps: 5000, SpansPerOp: 12,
		Why: "Create, stream to ready, submit job, metrics, delete, 2 clients: store.emit, wal.Append and fsync, the orchestrator and core.BuildXCBC do the work; 520 cycles per run second, tail p99",
		New: newLifecycle,
	},
	{
		Name: "fleet_scenario", Clients: 1, OpsPerSecond: 20, MinOps: 100, SpansPerOp: 512,
		Why: "100-member fleet, campus-100 run, whole trace paged, delete, 1 client: fleet, core, provision and scenario dominate and the API is a sliver; 20 ops per run second, tail p90",
		New: newFleetScenario,
	},
	{
		Name: "crash_recover", Clients: 1, OpsPerSecond: 32, MinOps: 100, SpansPerOp: 64,
		Why: "10 acked mutations, SIGKILL, restart on the same DataDir, audit, 1 client: wal.Open, snapshot decode and rebuild, so a write-path gain paid for in recovery shows; 32 ops per run second, tail p90",
		New: newCrashRecover,
	},
}

// SpecByName finds a workload.
func SpecByName(name string) *Spec {
	for _, s := range Specs {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// TenantName and TenantKey name tenant i of a multi-tenant run.
func TenantName(i int) string { return fmt.Sprintf("t%02d", i) }
func TenantKey(i int) string  { return fmt.Sprintf("bench-key-%02d", i) }

// TenantsJSON renders the -tenants file for n tenants with rate limits and
// quotas off.
func TenantsJSON(n int) []byte {
	var b bytes.Buffer
	b.WriteByte('[')
	for i := range n {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"name":%q,"key":%q}`, TenantName(i), TenantKey(i))
	}
	b.WriteString("]\n")
	return b.Bytes()
}

// JSONString returns the string value of the first "field":"..." pair in
// body: enough to pull an id out of a response the server just wrote
// without decoding kilobytes of events on the measured path.
func JSONString(body []byte, field string) string {
	key := []byte(`"` + field + `":"`)
	i := bytes.Index(body, key)
	if i < 0 {
		return ""
	}
	rest := body[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return string(rest[:j])
}

// JSONInt returns the integer value of the first "field":N pair in body,
// or -1.
func JSONInt(body []byte, field string) int {
	key := []byte(`"` + field + `":`)
	i := bytes.Index(body, key)
	if i < 0 {
		return -1
	}
	n, seen := 0, false
	for _, ch := range body[i+len(key):] {
		if ch < '0' || ch > '9' {
			break
		}
		n, seen = n*10+int(ch-'0'), true
	}
	if !seen {
		return -1
	}
	return n
}
