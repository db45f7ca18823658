// Command bench is the repository's benchmark: it builds and launches the
// real cmd/repo-server as a child process on a fresh on-disk DataDir,
// drives it closed-loop over keep-alive loopback HTTP, checks every
// response, and prints every metric by name with its unit. BENCHMARK.json
// at the root of the repository declares the workloads, the metrics and
// the bound by which each may worsen; README.md in this directory says what
// each number includes.
//
// Usage, from the root of the repository:
//
//	go run ./bench --workload lifecycle --seed 1 --seconds 10 --trace 0
//	go run ./bench --workload lifecycle --seed 1 --seconds 10 --trace 1
//	go run ./bench --workload all --seed 1 --out bench/out/run.json
//
// With --trace 0 the last line of standard output is one JSON object
// holding the end-to-end metrics; with --trace 1 it holds the per-layer
// metrics of a separate traced run, after the layer table. A run is a
// fixed operation count derived from --seconds (see work.Spec), never a
// timer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"xcbc/bench/work"
)

// defaultSeconds is run_seconds in BENCHMARK.json.
const defaultSeconds = 12

// watchdog ends a run that would otherwise overstay the 180 s a single
// invocation is allowed, children reaped and DataDirs removed.
const watchdog = 170 * time.Second

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "all", "workload name (read_mix, lifecycle, fleet_scenario, crash_recover) or all")
	seed := flag.Uint64("seed", 1, "seed of the request sequence; the sequence is a pure function of seed and workload")
	seconds := flag.Float64("seconds", defaultSeconds, "run length the operation counts are derived from")
	trace := flag.Int("trace", 0, "1: a separate traced run at a fifth of the operation count, reporting the per-layer metrics")
	out := flag.String("out", filepath.Join(outDir, "run.json"), "with -workload all: where the JSON report goes")
	flag.Parse()
	os.Exit(run(*workload, *seed, *seconds, *trace != 0, *out))
}

func run(workload string, seed uint64, seconds float64, trace bool, out string) int {
	if seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		return 2
	}
	tmpRoot := filepath.Join(outDir, "tmp", fmt.Sprintf("%010d", os.Getpid()))
	defer os.RemoveAll(tmpRoot)
	abort := func(code int, why string) {
		fmt.Fprintln(os.Stderr, "bench:", why)
		abortAll()
		os.RemoveAll(tmpRoot)
		os.Exit(code)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		abort(130, "interrupted by "+s.String())
	}()

	bin, err := buildBinary("./cmd/repo-server")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	if workload == "all" {
		return runAll(bin, tmpRoot, seed, seconds, out)
	}
	spec := work.SpecByName(workload)
	if spec == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", workload)
		return 2
	}
	var probeBin string
	if trace {
		if probeBin, err = buildBinary("./bench/layerprobe"); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	// Builds are done; from here the run is bounded.
	timer := time.AfterFunc(watchdog, func() { abort(3, "run exceeded "+watchdog.String()) })
	defer timer.Stop()

	line := resultLine{Metrics: make(map[string]metricValue)}
	if trace {
		tr, err := runTraced(bin, probeBin, tmpRoot, spec, seed, seconds)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		line.Attempted, line.Failed = tr.attempted, tr.failed
		line.Correct = tr.failed == 0 && tr.correct
		for _, m := range perLayer {
			line.Metrics[m.name] = metricValue{Value: tr.metrics[m.name], Unit: m.unit}
		}
	} else {
		res, err := runWorkload(fullRun(spec, seed, seconds, bin, tmpRoot))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		res.print()
		line.Attempted, line.Failed, line.Correct = res.Attempted, res.Failed, res.Failed == 0
		for _, m := range endToEnd {
			line.Metrics[m.name] = metricValue{Value: res.Metrics[m.name], Unit: m.unit}
		}
	}
	enc, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(enc))
	if !line.Correct {
		return 1
	}
	return 0
}

// fullRun is the configuration of an end-to-end run: the whole operation
// count, setupRuns set-ups, no tracing.
func fullRun(spec *work.Spec, seed uint64, seconds float64, bin, tmpRoot string) runConfig {
	return runConfig{spec: spec, seed: seed, ops: spec.MeasuredOps(seconds), setups: setupRuns, bin: bin, tmpRoot: tmpRoot}
}

// report is what -workload all writes to -out.
type report struct {
	Seed       uint64    `json:"seed"`
	Seconds    float64   `json:"seconds"`
	NumCPU     int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	SetupRuns  int       `json:"setup_runs"`
	Workloads  []*result `json:"workloads"`
}

// runAll runs the four workloads one after the other, prints their
// "workload/metric value unit" lines and writes the JSON report. The exit
// code is non-zero when any operation failed.
func runAll(bin, tmpRoot string, seed uint64, seconds float64, out string) int {
	rep := report{Seed: seed, Seconds: seconds, NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), SetupRuns: setupRuns}
	fmt.Printf("env/nproc %d count\nenv/gomaxprocs %d count\nenv/go_version %s\nenv/seed %d\nenv/seconds %g s\n",
		rep.NumCPU, rep.GOMAXPROCS, rep.GoVersion, seed, seconds)
	code := 0
	for _, spec := range work.Specs {
		res, err := runWorkload(fullRun(spec, seed, seconds, bin, tmpRoot))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		res.print()
		if res.Failed > 0 {
			code = 1
		}
		rep.Workloads = append(rep.Workloads, res)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err == nil {
		if err = os.MkdirAll(filepath.Dir(out), 0o755); err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println("report written to", out)
	return code
}
