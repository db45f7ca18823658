package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"xcbc/bench/work"
)

func TestParseStatCPUCountsFieldsFromTheLastParenthesis(t *testing.T) {
	// A command name with spaces and parentheses must not shift the fields:
	// utime=1234 and stime=66 are fields 14 and 15.
	stat := []byte("4242 (repo) server (x)) S 1 4242 4242 0 -1 4194560 901 0 0 0 1234 66 0 0 20 0 9 0 555 1 2 3\n")
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1300 * clockTick; got != want {
		t.Errorf("cpu = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 10 eleven 12 13"} {
		if _, err := parseStatCPU([]byte(bad)); err == nil {
			t.Errorf("parseStatCPU(%q) accepted a malformed line", bad)
		}
	}
}

func TestParseKeyedReadsStatusAndIO(t *testing.T) {
	status := []byte("Name:\trepo-server\nVmPeak:\t 1240000 kB\nVmHWM:\t   20528 kB\nVmRSS:\t   19000 kB\n")
	if got, err := parseKeyed(status, "VmHWM"); err != nil || got != 20528 {
		t.Errorf("VmHWM = %d, %v", got, err)
	}
	io := []byte("rchar: 10\nwchar: 99\nread_bytes: 0\nwrite_bytes: 4096000\ncancelled_write_bytes: 0\n")
	if got, err := parseKeyed(io, "write_bytes"); err != nil || got != 4096000 {
		t.Errorf("write_bytes = %d, %v", got, err)
	}
	if _, err := parseKeyed(status, "VmSwapped"); err == nil {
		t.Error("a missing key must be an error")
	}
}

func TestLiveUsageReadsThisProcess(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no /proc on this platform")
	}
	deadline := time.Now().Add(30 * time.Millisecond)
	for time.Now().Before(deadline) { // burn at least one clock tick of CPU
	}
	u, err := liveUsage(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if u.cpu <= 0 || u.peakRSSKB <= 0 {
		t.Errorf("usage = %+v, want positive cpu and peak RSS", u)
	}
	if selfCPU() <= 0 {
		t.Error("selfCPU reported no CPU time")
	}
}

// BENCHMARK.json is the contract other changes are judged against; the
// names and units in it must be the ones this program prints.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var decl struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", decl.RunSeconds, defaultSeconds)
	}
	if len(decl.Workloads) != len(work.Specs) {
		t.Fatalf("%d workloads declared, %d implemented", len(decl.Workloads), len(work.Specs))
	}
	for i, w := range decl.Workloads {
		if spec := work.Specs[i]; w.Name != spec.Name || w.Why != spec.Why {
			t.Errorf("workload %d: declared %q (%q), implemented %q (%q)", i, w.Name, w.Why, spec.Name, spec.Why)
		}
	}
	check := func(kind string, declared []metric, printed []struct{ name, unit string }, bounded bool) {
		if len(declared) != len(printed) {
			t.Fatalf("%s: %d metrics declared, %d printed", kind, len(declared), len(printed))
		}
		for i, d := range declared {
			if d.Name != printed[i].name || d.Unit != printed[i].unit {
				t.Errorf("%s %d: declared %s [%s], printed %s [%s]", kind, i, d.Name, d.Unit, printed[i].name, printed[i].unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s %s: better = %q", kind, d.Name, d.Better)
			}
			if bounded != (d.Bound != nil) || (bounded && (*d.Bound <= 0 || *d.Bound > 0.25)) {
				t.Errorf("%s %s: bad or misplaced bound", kind, d.Name)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd, true)
	check("per_layer", decl.PerLayer, perLayer, false)
}
