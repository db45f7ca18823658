package main

import (
	"fmt"
	"net/http"
	"time"

	"xcbc/bench/work"
)

// setupRuns is how many times a full run sets the server up (exec →
// healthy → population settled → end of warm-up); setup_s is the median
// and the last set-up goes on into the measured phase.
const setupRuns = 3

// runConfig says how to run one workload once.
type runConfig struct {
	spec    *work.Spec
	seed    uint64
	ops     int            // operations in the measured phase
	setups  int            // set-ups to time; the last one is measured
	rec     *work.Recorder // nil: untraced
	keepDir bool           // leave the stopped server's DataDir for the layer probe
	bin     string         // repo-server binary
	tmpRoot string
}

// result is what one run of one workload measured.
type result struct {
	Workload       string   `json:"workload"`
	Seed           uint64   `json:"seed"`
	Clients        int      `json:"clients"`
	Ops            int      `json:"ops_measured"`
	Warmup         int      `json:"ops_warmup"`
	Samples        int      `json:"samples"`
	TailPercentile int      `json:"tail_percentile"`
	Attempted      int      `json:"ops_attempted"`
	Failed         int      `json:"ops_failed"`
	Errors         []string `json:"errors,omitempty"`

	// Metrics holds the six end-to-end metrics by name.
	Metrics map[string]float64 `json:"metrics"`

	SetupRunsS       []float64 `json:"setup_runs_s"`
	MeasuredS        float64   `json:"measured_s"`
	SegmentRateQ1    float64   `json:"segment_rate_q1_ops_s"`
	SegmentRateQ3    float64   `json:"segment_rate_q3_ops_s"`
	ServerCPUS       float64   `json:"server_cpu_s"`
	HarnessCPUShare  float64   `json:"harness_cpu_share"`
	WALRecordsPerOp  float64   `json:"wal_records_per_op"`
	DiskBytesPerOp   float64   `json:"disk_bytes_per_op"`
	RespBytesPerOp   float64   `json:"resp_bytes_per_op"`
	RequestsPerOp    float64   `json:"requests_per_op"`
	MaxRSSMB         float64   `json:"server_max_rss_mb"`
	Incarnations     int       `json:"server_incarnations"`
	TraceEventsPerOp int       `json:"trace_events_per_run,omitempty"`

	dataDir string // set when runConfig.keepDir
}

// endToEnd lists the end-to-end metrics with their units, in reporting order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_ops_s", "ops/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"server_cpu_ms_per_op", "ms"},
	{"server_peak_rss_mb", "MB"},
}

// storeSeq reads the WAL's next sequence number from GET /api/v1/store
// (tenant 0's shard on a multi-tenant server).
func storeSeq(e *env, spec *work.Spec) (int, error) {
	d := &netDoer{client: e.client, base: "http://" + e.addr}
	req := &work.Request{Method: "GET", Path: "/api/v1/store"}
	if spec.Tenants > 0 {
		req.Key = work.TenantKey(0)
	}
	status, body, err := d.Do(req)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("GET /api/v1/store: status %d", status)
	}
	// next_seq is omitted while it is still 0.
	return max(work.JSONInt(body, "next_seq"), 0), nil
}

// runWorkload runs one workload once: cfg.setups fresh servers are set up
// and timed, and the last one runs the measured phase.
func runWorkload(cfg runConfig) (*result, error) {
	spec := cfg.spec
	warm := work.Warmup(cfg.ops)
	res := &result{
		Workload: spec.Name, Seed: cfg.seed, Clients: spec.Clients,
		Ops: cfg.ops, Warmup: warm, Metrics: make(map[string]float64),
	}
	var e *env
	var runner *work.Runner
	for rep := 1; rep <= cfg.setups; rep++ {
		var err error
		if e, err = newEnv(cfg.bin, cfg.tmpRoot, spec); err != nil {
			return nil, err
		}
		var rec *work.Recorder
		if rep == cfg.setups {
			rec = cfg.rec
		}
		t0 := time.Now()
		if err := e.start(); err != nil {
			e.close()
			return nil, err
		}
		conns := make([]*work.Conn, spec.Clients)
		for i := range conns {
			conns[i] = work.NewConn(&netDoer{client: e.client, base: "http://" + e.addr}, rec, e.restart)
		}
		runner = &work.Runner{W: spec.New(cfg.seed, warm+cfg.ops), Conns: conns}
		if err := runner.Populate(); err != nil {
			e.close()
			return nil, fmt.Errorf("%s: population: %w", spec.Name, err)
		}
		runner.Run(0, warm)
		res.SetupRunsS = append(res.SetupRunsS, time.Since(t0).Seconds())
		if rep < cfg.setups {
			res.count(runner)
			e.close()
		}
	}
	defer func() {
		if cfg.keepDir {
			e.kill()
			res.dataDir = e.dataDir()
		} else {
			e.close()
		}
	}()

	seq0, err := storeSeq(e, spec)
	if err != nil {
		return nil, err
	}
	u0, err := e.usage()
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	traffic := func() (calls, bytes int64) {
		for _, c := range runner.Conns {
			calls += c.Calls
			bytes += c.Bytes
		}
		return calls, bytes
	}
	calls0, bytes0 := traffic()

	finishRSS := e.watchRSS()
	samples := runner.Run(warm, warm+cfg.ops)
	rssPeaks := finishRSS()

	self1 := selfCPU()
	u1, err := e.usage()
	if err != nil {
		return nil, err
	}
	seq1, err := storeSeq(e, spec)
	if err != nil {
		return nil, err
	}
	calls1, bytes1 := traffic()

	res.count(runner)
	res.Samples = len(samples)
	res.Incarnations = e.incarnations
	res.TraceEventsPerOp = work.TraceEventsOf(runner.W)

	ops := float64(cfg.ops)
	lats := work.Latencies(samples)
	tailQ := work.TailQuantile(len(lats))
	res.TailPercentile = int(tailQ*100 + 0.5)
	rates := work.SegmentRates(samples) // leaves samples in completion order
	res.MeasuredS = samples[len(samples)-1].End.Seconds()
	res.SegmentRateQ1, res.SegmentRateQ3 = work.Quartiles(rates)
	serverCPU := u1.cpu - u0.cpu
	harnessCPU := self1 - self0
	res.ServerCPUS = serverCPU.Seconds()
	if total := serverCPU + harnessCPU; total > 0 {
		res.HarnessCPUShare = float64(harnessCPU) / float64(total)
	}
	res.WALRecordsPerOp = float64(seq1-seq0) / ops
	res.DiskBytesPerOp = float64(u1.writeBytes-u0.writeBytes) / ops
	res.RespBytesPerOp = float64(bytes1-bytes0) / ops
	res.RequestsPerOp = float64(calls1-calls0) / ops

	setups := append([]float64(nil), res.SetupRunsS...)
	res.Metrics["setup_s"] = work.Median(setups)
	res.Metrics["throughput_ops_s"] = work.Median(rates)
	res.Metrics["op_p50_ms"] = work.Ms(work.Percentile(lats, 0.5))
	res.Metrics["op_tail_ms"] = work.Ms(work.Percentile(lats, tailQ))
	res.Metrics["server_cpu_ms_per_op"] = work.Ms(serverCPU) / ops
	res.Metrics["server_peak_rss_mb"] = work.Median(rssPeaks) / 1024
	res.MaxRSSMB = float64(u1.peakRSSKB) / 1024
	return res, nil
}

// count adds a finished runner's operations and failures to the run's.
func (r *result) count(runner *work.Runner) {
	r.Attempted += runner.Attempted()
	r.Failed += runner.Failed()
	r.Errors = append(r.Errors, runner.Errors()...)
}

// print writes the run as "workload/metric value unit" lines.
func (r *result) print() {
	w := r.Workload
	for _, m := range endToEnd {
		fmt.Printf("%s/%s %.4f %s\n", w, m.name, r.Metrics[m.name], m.unit)
	}
	fmt.Printf("%s/ops_attempted %d count\n", w, r.Attempted)
	fmt.Printf("%s/ops_failed %d count\n", w, r.Failed)
	fmt.Printf("%s/samples %d count\n", w, r.Samples)
	fmt.Printf("%s/tail_percentile %d p\n", w, r.TailPercentile)
	fmt.Printf("%s/measured_s %.3f s\n", w, r.MeasuredS)
	fmt.Printf("%s/segment_rate_iqr %.2f..%.2f ops/s\n", w, r.SegmentRateQ1, r.SegmentRateQ3)
	fmt.Printf("%s/setup_runs_s %.3f s\n", w, r.SetupRunsS)
	fmt.Printf("%s/server_max_rss_mb %.2f MB\n", w, r.MaxRSSMB)
	fmt.Printf("%s/server_cpu_s %.2f s\n", w, r.ServerCPUS)
	fmt.Printf("%s/harness_cpu_share %.3f ratio\n", w, r.HarnessCPUShare)
	fmt.Printf("%s/requests_per_op %.3f count\n", w, r.RequestsPerOp)
	fmt.Printf("%s/wal_records_per_op %.3f count\n", w, r.WALRecordsPerOp)
	fmt.Printf("%s/disk_bytes_per_op %.0f bytes\n", w, r.DiskBytesPerOp)
	for _, e := range r.Errors {
		fmt.Printf("%s/error %s\n", w, e)
	}
}
