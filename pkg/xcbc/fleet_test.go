package xcbc

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"testing"
	"time"
)

func TestNewFleetRejectsBadSpecs(t *testing.T) {
	cases := []FleetSpec{
		{Members: 0},
		{Members: -1},
		{Members: 1, Cluster: "deep-thought"},
		{Members: 1, Nodes: -2},
	}
	for _, spec := range cases {
		if _, err := NewFleet(spec); !errors.Is(err, ErrBadFleetSpec) {
			t.Errorf("NewFleet(%+v) = %v, want ErrBadFleetSpec", spec, err)
		}
	}
}

func TestFleetDeployAndOperate(t *testing.T) {
	f, err := NewFleet(FleetSpec{Name: "campus", Members: 3, Nodes: 2, Parallelism: 2, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	m, ok := f.Member(0)
	if !ok {
		t.Fatal("member 0 missing")
	}
	if _, err := m.Cluster(); !errors.Is(err, ErrNotReady) {
		t.Fatalf("Cluster before deploy = %v, want ErrNotReady", err)
	}
	if err := f.Deploy(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := f.Status()
	if st.Ready != 3 || !st.Settled() {
		t.Fatalf("status = %+v, want 3 ready settled", st)
	}
	if m.ID() != "campus-000" || m.Index() != 0 || m.Status() != StateReady {
		t.Fatalf("member 0 = %s/%d/%s", m.ID(), m.Index(), m.Status())
	}
	if evs, _ := m.Events(0); len(evs) == 0 {
		t.Fatal("member 0 has an empty build journal")
	}
	cl, err := m.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	job, err := cl.SubmitJob(JobSpec{User: "alice", Cores: 1, Walltime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if job.State != JobRunning {
		t.Fatalf("job state = %s, want running on an idle member", job.State)
	}
	// The escape hatch must share the member's serialization point, not
	// mint a second adapter over the same engine.
	if again := cl.Deployment().Open(); again.ops != cl.ops {
		t.Fatal("Deployment().Open() minted a second adapter for a fleet member")
	}
	// Second Provision is rejected.
	if err := f.Provision(context.Background()); !errors.Is(err, ErrBadOption) {
		t.Fatalf("second Provision = %v, want ErrBadOption", err)
	}
}

func TestBuiltinScenarioLookup(t *testing.T) {
	names := BuiltinScenarios()
	if len(names) < 3 {
		t.Fatalf("builtins = %v, want at least 3", names)
	}
	for _, name := range names {
		sc, err := BuiltinScenario(name)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Name() != name || sc.Members() < 1 || sc.Phases() < 1 {
			t.Fatalf("builtin %s is malformed: %d members, %d phases", name, sc.Members(), sc.Phases())
		}
		data, err := sc.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := LoadScenario(data); err != nil {
			t.Fatalf("builtin %s does not round-trip: %v", name, err)
		}
	}
	if _, err := BuiltinScenario("nope"); !errors.Is(err, ErrUnknownScenario) {
		t.Fatalf("unknown builtin = %v, want ErrUnknownScenario", err)
	}
}

func TestLoadScenarioRejectsGarbage(t *testing.T) {
	for _, data := range []string{
		`{`,
		`{"name":"x","fleet":{"members":1},"phases":[{"kind":"explode"}]}`,
		`{"name":"x","fleet":{"members":-1},"phases":[{"kind":"provision"}]}`,
	} {
		if _, err := LoadScenario([]byte(data)); !errors.Is(err, ErrBadScenario) {
			t.Errorf("LoadScenario(%q) = %v, want ErrBadScenario", data, err)
		}
	}
}

func TestRunScenarioDeterministic(t *testing.T) {
	script := []byte(`{
		"name": "sdk-smoke",
		"seed": 5,
		"fleet": {"members": 2, "nodes": 2, "parallelism": 2, "workers": 2},
		"phases": [
			{"kind": "provision"},
			{"kind": "jobs", "count": 1, "cores": 1, "runtime": "10m"},
			{"kind": "advance", "duration": "30m"},
			{"kind": "metrics"},
			{"kind": "assert", "invariants": [{"name": "all-ready"}, {"name": "jobs-conserved"}]}
		]
	}`)
	sc, err := LoadScenario(script)
	if err != nil {
		t.Fatal(err)
	}
	first, err := RunScenario(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Passed() || len(first.Violations()) != 0 {
		t.Fatalf("passed=%v violations=%v", first.Passed(), first.Violations())
	}
	st := first.Stats()
	if st.Ready != 2 || st.JobsSubmitted != 2 {
		t.Fatalf("stats = %+v", st)
	}
	trace := first.Trace()
	if len(trace) < 3 || first.TraceLen() != len(trace) {
		t.Fatalf("trace has %d events, TraceLen %d", len(trace), first.TraceLen())
	}
	// Windows are copies of the same events, clamped to the trace.
	if w := first.TraceWindow(1, 3); !slices.Equal(w, trace[1:3]) {
		t.Fatalf("TraceWindow(1, 3) = %v", w)
	}
	if w := first.TraceWindow(-4, len(trace)+9); !slices.Equal(w, trace) {
		t.Fatalf("an over-wide window should clamp to the whole trace, got %d events", len(w))
	}
	if w := first.TraceWindow(3, 1); len(w) != 0 {
		t.Fatalf("an inverted window should be empty, got %v", w)
	}
	second, err := RunScenario(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.TraceJSONL(), second.TraceJSONL()) {
		t.Fatal("same scenario and seed produced different traces")
	}
}

func TestFleetRunScenarioSizeMismatch(t *testing.T) {
	f, err := NewFleet(FleetSpec{Members: 2, Nodes: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := LoadScenario([]byte(`{
		"name": "three", "fleet": {"members": 3},
		"phases": [{"kind": "provision"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.RunScenario(context.Background(), sc); !errors.Is(err, ErrBadScenario) {
		t.Fatalf("RunScenario on mismatched fleet = %v, want ErrBadScenario", err)
	}
}

// TestFleetMembersAreBuiltOnce: members are fixed at NewFleet, so the
// wrappers are too — Members hands out the same values every time for the
// price of the slice it returns, Member(i) for nothing, and a caller that
// scribbles on the slice cannot disturb the fleet.
func TestFleetMembersAreBuiltOnce(t *testing.T) {
	f, err := NewFleet(FleetSpec{Name: "campus", Members: 100, Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = f.Members() }); n > 1 {
		t.Errorf("Members() allocates %v times, want at most 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = f.Member(99) }); n != 0 {
		t.Errorf("Member(i) allocates %v times, want 0", n)
	}
	first := f.Members()
	for i, m := range first {
		if again, ok := f.Member(i); !ok || again != m || m.Index() != i {
			t.Fatalf("member %d: Member(i) = %p, Members()[i] = %p (index %d)", i, again, m, m.Index())
		}
	}
	if first[7].ID() != "campus-007" {
		t.Errorf("member 7 is %q", first[7].ID())
	}
	first[0] = nil
	if m, _ := f.Member(0); m == nil || f.Members()[0] != m {
		t.Error("writing to the returned slice reached the fleet")
	}
	if _, ok := f.Member(100); ok {
		t.Error("Member(100) of a 100-member fleet")
	}
	if _, ok := f.Member(-1); ok {
		t.Error("Member(-1)")
	}
}
