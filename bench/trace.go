package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"

	"xcbc/bench/work"
)

// perLayer lists the per-layer metrics of a --trace 1 run with their
// units, in reporting order. BENCHMARK.json repeats the list; README.md
// says which end-to-end metric each one should move.
var perLayer = []struct{ name, unit string }{
	{"harness.cpu_share", "ratio"},
	{"harness.trace_overhead_pct", "%"},
	{"harness.first_run_penalty_pct", "%"},
	{"http.residual_ms_per_op", "ms"},
	{"api.list_ms", "ms"},
	{"api.page_ms", "ms"},
	{"api.get_ms", "ms"},
	{"api.discovery_ms", "ms"},
	{"api.depsolve_ms", "ms"},
	{"api.create_deployment_ms", "ms"},
	{"api.events_to_ready_ms", "ms"},
	{"api.submit_job_ms", "ms"},
	{"api.metrics_ms", "ms"},
	{"api.delete_ms", "ms"},
	{"api.trace_page_ms", "ms"},
	{"api.open_ms", "ms"},
	{"api.resp_bytes_per_op", "bytes"},
	{"api.tenant_scale_ratio", "ratio"},
	{"wal.append_us", "us"},
	{"wal.append_nosync_us", "us"},
	{"wal.fsync_ms", "ms"},
	{"wal.batch64_us_per_record", "us"},
	{"wal.snapshot_ms", "ms"},
	{"wal.open_ms", "ms"},
	{"wal.records_per_op", "count"},
	{"wal.disk_bytes_per_op", "bytes"},
	{"orchestrator.submit_settle_us", "us"},
	{"orchestrator.journal_append_ns", "ns"},
	{"core.build_littlefe_ms", "ms"},
	{"core.build_first_ms", "ms"},
	{"core.ops_submit_job_us", "us"},
	{"core.ops_metrics_us", "us"},
	{"provision.install_all_waves_ms", "ms"},
	{"depsolve.install_gromacs_us", "us"},
	{"fleet.provision100_ms", "ms"},
	{"fleet.allocs_per_member", "count"},
	{"fleet.retained_kb_per_member", "KB"},
	{"scenario.run_campus100_ms", "ms"},
	{"scenario.trace_events_per_run", "count"},
}

// traced is the outcome of a --trace 1 invocation.
type traced struct {
	attempted, failed int
	correct           bool
	metrics           map[string]float64
}

// traceFile is what a traced run leaves in bench/out/trace-<workload>.json.
type traceFile struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Ops        int                `json:"ops_measured"`
	Metrics    map[string]float64 `json:"metrics"`
	Wire       []work.ClassStat   `json:"classes_over_the_wire"`
	InProcess  *work.InProcessRun `json:"in_process"`
	Spans      []work.Span        `json:"spans"`
	ProbeSpans []work.Span        `json:"probe_spans"`
}

// runTraced is the per-layer run: the workload at a fifth of its operation
// count, three times on fresh servers — untraced (first of the batch),
// traced, untraced — then the in-process layer probe. End-to-end metrics
// are never taken from here; the two untraced runs only price the tracing
// and the first-run effect.
func runTraced(bin, probeBin, tmpRoot string, spec *work.Spec, seed uint64, seconds float64) (*traced, error) {
	ops := max(spec.MeasuredOps(seconds)/5, 20)
	cfg := runConfig{spec: spec, seed: seed, ops: ops, setups: 1, bin: bin, tmpRoot: tmpRoot}
	first, err := runWorkload(cfg)
	if err != nil {
		return nil, err
	}
	tcfg := cfg
	tcfg.rec = work.NewRecorder((ops + work.Warmup(ops) + 1) * spec.SpansPerOp)
	tcfg.keepDir = true
	tr, err := runWorkload(tcfg)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(filepath.Dir(tr.dataDir))
	base, err := runWorkload(cfg)
	if err != nil {
		return nil, err
	}

	walDir := tr.dataDir
	if spec.Tenants > 0 {
		walDir = filepath.Join(walDir, "tenants", work.TenantName(0))
	}
	cmd := exec.Command(probeBin, "-tmp", filepath.Join(tmpRoot, "probe"),
		"-waldir", walDir, "-seed", strconv.FormatUint(seed, 10))
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("layerprobe: %w", err)
	}
	var probe work.ProbeOutput
	if err := json.Unmarshal(raw, &probe); err != nil {
		return nil, fmt.Errorf("layerprobe output: %w", err)
	}
	inproc := probe.InProcess[spec.Name]
	if inproc == nil {
		return nil, fmt.Errorf("layerprobe reported no in-process run of %s", spec.Name)
	}

	m := probe.Metrics
	p50 := func(r *result) float64 { return r.Metrics["op_p50_ms"] }
	m["harness.cpu_share"] = base.HarnessCPUShare
	m["harness.trace_overhead_pct"] = 100 * (p50(tr) - p50(base)) / p50(base)
	m["harness.first_run_penalty_pct"] = 100 * (p50(first) - p50(base)) / p50(base)
	m["http.residual_ms_per_op"] = p50(base) - inproc.OpP50Ms
	m["wal.records_per_op"] = tr.WALRecordsPerOp
	m["wal.disk_bytes_per_op"] = tr.DiskBytesPerOp

	t := &traced{metrics: m, correct: true}
	for _, r := range []*result{first, tr, base} {
		t.attempted += r.Attempted
		t.failed += r.Failed
		for _, e := range r.Errors {
			fmt.Printf("%s/error %s\n", spec.Name, e)
		}
	}
	if spec.Name == "fleet_scenario" && tr.TraceEventsPerOp != int(m["scenario.trace_events_per_run"]) {
		fmt.Printf("%s/error the server's campus-100 trace has %d events, the in-process run %d\n",
			spec.Name, tr.TraceEventsPerOp, int(m["scenario.trace_events_per_run"]))
		t.correct = false
	}
	if dropped := tcfg.rec.Dropped(); dropped > 0 {
		fmt.Printf("%s/error %d spans did not fit the recorder\n", spec.Name, dropped)
		t.correct = false
	}
	for _, pl := range perLayer {
		if _, ok := m[pl.name]; !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", pl.name)
		}
	}

	spans := tcfg.rec.Spans()
	wire := work.Summarize(spans, int32(tr.Warmup), tr.Ops)
	printLayerTable(spec, tr, base, wire, &probe)
	for _, pl := range perLayer {
		fmt.Printf("%s/%s %.4f %s\n", spec.Name, pl.name, m[pl.name], pl.unit)
	}

	path := filepath.Join(outDir, "trace-"+spec.Name+".json")
	data, err := json.Marshal(traceFile{Workload: spec.Name, Seed: seed, Ops: tr.Ops, Metrics: m,
		Wire: wire, InProcess: inproc, Spans: spans, ProbeSpans: probe.Spans})
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		return nil, err
	}
	fmt.Printf("%s/trace_file %s (%d spans)\n", spec.Name, path, len(spans)+len(probe.Spans))
	return t, nil
}

// printLayerTable prints, for one workload, each route class's busy time
// per operation (in-process median × calls per operation), their sum, the
// end-to-end op_p50_ms and the named residuals, then the layers beneath
// the routes as the probes timed them.
func printLayerTable(spec *work.Spec, tr, base *result, wire []work.ClassStat, probe *work.ProbeOutput) {
	inproc := probe.InProcess[spec.Name]
	m := probe.Metrics
	wireP50 := make(map[string]float64, len(wire))
	for _, c := range wire {
		wireP50[c.Name] = c.P50Ms
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "layer table: %s (traced run %d ops over the wire, %d ops in process; medians, ms)\n", spec.Name, tr.Ops, inproc.Ops)
	fmt.Fprintf(&b, "  %-28s %9s %12s %12s %12s\n", "route class (api layer)", "calls/op", "in-process", "busy/op", "over wire")
	sum := 0.0
	for _, c := range inproc.Classes {
		if c.Name == "op" {
			continue
		}
		// crash_recover's latency is kill → healthy: only the restart is in it.
		counted := spec.Name != "crash_recover" || c.Name == "restart"
		busy := c.P50Ms * c.CallsPerOp
		mark := ""
		if counted {
			sum += busy
		} else {
			mark = "  (outside the op latency)"
		}
		fmt.Fprintf(&b, "  %-28s %9.2f %12.4f %12.4f %12.4f%s\n", "api."+c.Name, c.CallsPerOp, c.P50Ms, busy, wireP50[c.Name], mark)
	}
	e2e := base.Metrics["op_p50_ms"]
	fmt.Fprintf(&b, "  %-28s %9s %12s %12.4f\n", "sum of route busy time", "", "", sum)
	fmt.Fprintf(&b, "  %-28s %9s %12s %12.4f   waits inside the op (polls, async settle): %.4f\n",
		"in-process op p50", "", "", inproc.OpP50Ms, inproc.OpP50Ms-sum)
	fmt.Fprintf(&b, "  %-28s %9s %12s %12.4f   untraced, same op count\n", "end-to-end op_p50_ms", "", "", e2e)
	fmt.Fprintf(&b, "  %-28s %9s %12s %12.4f   sockets, net/http on both sides, client (process exec for crash_recover)\n",
		"http.residual_ms_per_op", "", "", m["http.residual_ms_per_op"])
	fmt.Fprintf(&b, "  beneath the routes (probes; part of the rows above, not added to the sum):\n")
	under := func(name string, perOp float64, note string) {
		fmt.Fprintf(&b, "    %-34s %12.4f ms/op   %s\n", name, perOp, note)
	}
	switch spec.Name {
	case "read_mix":
		under("depsolve.install_gromacs_us", m["depsolve.install_gromacs_us"]/1000/20, "1 request in 20")
	case "lifecycle":
		under("core.build_littlefe_ms", m["core.build_littlefe_ms"], "one build per op, through the orchestrator")
		under("provision.install_all_waves_ms", m["provision.install_all_waves_ms"], "inside core.build")
		under("orchestrator.submit_settle_us", m["orchestrator.submit_settle_us"]/1000, "one job per op")
		under("wal.append_us x records_per_op", m["wal.append_us"]/1000*tr.WALRecordsPerOp, fmt.Sprintf("%.2f records per op", tr.WALRecordsPerOp))
	case "fleet_scenario":
		under("fleet.provision100_ms", m["fleet.provision100_ms"], "one 100-member fleet per op")
		under("scenario.run_campus100_ms", m["scenario.run_campus100_ms"], "one run per op")
		under("wal.batch64_us x records_per_op", m["wal.batch64_us_per_record"]/1000*tr.WALRecordsPerOp, fmt.Sprintf("%.2f records per op", tr.WALRecordsPerOp))
	case "crash_recover":
		under("api.open_ms", m["api.open_ms"], "recovery of the standing population")
		under("wal.open_ms", m["wal.open_ms"], "2048 records of this workload's shapes")
	}
	os.Stdout.Write(b.Bytes())
}
