package scenario

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// nastyStrings are the inputs encoding/json treats specially: what it
// escapes for HTML, for JSON, and for JavaScript (U+2028/9), control
// bytes with and without short escapes, DEL, multi-byte runes, and invalid
// UTF-8 it replaces with U+FFFD.
var nastyStrings = []string{
	"", "plain", "packages=151 duration=1h2m3s quarantined=0", "a<b>c&d", `say "hi"`, `back\slash`,
	"tab\there", "line\nfeed", "cr\rlf", "bell\a", "\b\f", "nul\x00byte", "\x1f", "\x7f", "~ ", "é", "日本語",
	"\u2028", "x\u2029y", "\xff", "bad\xc3", "\xed\xa0\x80", "\xf0\x9f\x98", "😀", "</script>",
}

func checkAppendJSON(t *testing.T, ev Event) {
	t.Helper()
	want, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("prefix")
	got := ev.AppendJSON(prefix)
	if !bytes.Equal(got[len(prefix):], want) || !bytes.HasPrefix(got, prefix) {
		t.Fatalf("AppendJSON(%+v)\n got %s\nwant %s", ev, got[len(prefix):], want)
	}
}

// TestAppendJSONMatchesMarshal: the appended encoding is json.Marshal's,
// byte for byte — journaled progress hashes are computed over it, so a
// difference would make a restarted server reject its own log.
func TestAppendJSONMatchesMarshal(t *testing.T) {
	for _, s := range nastyStrings {
		for _, n := range []int{0, -1, 7, 1 << 40, -1 << 62} {
			checkAppendJSON(t, Event{Seq: n, Phase: -n, Kind: s, Member: s, Node: s, Detail: s})
			checkAppendJSON(t, Event{Seq: n, Kind: "k" + s, Detail: s + "tail"})
			checkAppendJSON(t, Event{Phase: n, Kind: s, Node: s})
		}
	}
	// And every line of the golden traces is what the encoder would write.
	goldens, err := filepath.Glob(filepath.Join("testdata", "scenario-*.golden"))
	if err != nil || len(goldens) == 0 {
		t.Fatalf("no golden traces: %v", err)
	}
	for _, path := range goldens {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
			var ev Event
			if err := json.Unmarshal(line, &ev); err != nil {
				t.Fatal(err)
			}
			if got := ev.AppendJSON(nil); !bytes.Equal(got, line) {
				t.Fatalf("%s: re-encoded %s as %s", path, line, got)
			}
		}
	}
}

// TestResultJSONMatchesMarshal: the journaled form of a settled run is
// json.Marshal's, whatever the result holds — no events, nil events,
// violations, strings json escapes.
func TestResultJSONMatchesMarshal(t *testing.T) {
	results := []*Result{
		{Scenario: "empty"},
		{Scenario: "no-events", Seed: -3, Passed: true, Events: []Event{}},
		{Scenario: `q"<&>`, Seed: 7, Violations: []string{"all-ready: ready=1 <2>"}, Stats: Stats{Members: 2, SimulatedEnd: 3600e9},
			Events: []Event{{Seq: 0, Phase: -1, Kind: "scenario.start"}, {Seq: 1, Kind: "x", Member: "m\n", Detail: "d\xff"}}},
	}
	for _, name := range Builtins() {
		res, err := Run(context.Background(), Builtin(name))
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	for _, res := range results {
		want, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		got, err := res.JSON()
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: JSON() = %v\n%.300s\nwant\n%.300s", res.Scenario, err, got, want)
		}
		var back Result
		if err := json.Unmarshal(got, &back); err != nil || len(back.Events) != len(res.Events) {
			t.Errorf("%s: does not decode back: %v", res.Scenario, err)
		}
	}
}

func FuzzAppendJSON(f *testing.F) {
	for i, s := range nastyStrings {
		f.Add(i, -i, s, nastyStrings[len(nastyStrings)-1-i], "", s+s)
	}
	f.Fuzz(func(t *testing.T, seq, phase int, kind, member, node, detail string) {
		checkAppendJSON(t, Event{Seq: seq, Phase: phase, Kind: kind, Member: member, Node: node, Detail: detail})
	})
}

// TestTraceDigestsIgnoreWorkersAndProcs: members are stamped from one
// template and built by however many workers the spec asks for, on however
// many processors there are — and none of that may reach a trace. Every
// corpus entry must hash to its committed digest (and campus-100 equal its
// golden file) at 1, 2 and 8 workers under GOMAXPROCS 1 and 2.
func TestTraceDigestsIgnoreWorkersAndProcs(t *testing.T) {
	want := map[string]string{}
	data, err := os.ReadFile(filepath.Join("testdata", "trace-digests.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if key, sum, ok := strings.Cut(line, " "); ok {
			want[key] = sum
		}
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "scenario-campus-100.golden"))
	if err != nil {
		t.Fatal(err)
	}
	entries := corpus()
	if testing.Short() {
		entries = entries[:len(Builtins())+8]
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 2, 8} {
			for _, entry := range entries {
				sc := entry.sc()
				sc.Fleet.Workers = workers
				res, err := Run(context.Background(), sc)
				if err != nil {
					t.Fatalf("%s: %v", entry.key, err)
				}
				trace := res.TraceJSONL()
				if got := fmt.Sprintf("%x", sha256.Sum256(trace)); got != want[entry.key] {
					t.Errorf("%s at workers=%d GOMAXPROCS=%d: digest %s, want %s", entry.key, workers, procs, got, want[entry.key])
				}
				if entry.key == "builtin/campus-100" && !bytes.Equal(trace, golden) {
					t.Errorf("campus-100 at workers=%d GOMAXPROCS=%d differs from its golden trace:\n%s",
						workers, procs, firstDiff(trace, golden))
				}
				res.Release()
			}
		}
	}
}
