package xcbc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"xcbc/internal/fleet"
	"xcbc/internal/scenario"
)

// Scenario scripting: declarative, seed-deterministic chaos runs over a
// fleet. A scenario provisions the fleet, injects faults (kickstart
// failures, node quarantine, repository outages, job floods), runs day-2
// operations (workloads, metrics, wave-parallel update rollouts), asserts
// invariants, and emits a machine-readable trace that is byte-identical
// for a given scenario and seed — the regression substrate every future
// scale and performance change is validated against.

// Scenario sentinels; test with errors.Is.
var (
	// ErrBadScenario reports scenario JSON that fails decoding or
	// validation (unknown phases, negative counts, unknown fault kinds).
	ErrBadScenario = errors.New("xcbc: invalid scenario")
	// ErrUnknownScenario reports a built-in scenario name absent from
	// BuiltinScenarios().
	ErrUnknownScenario = errors.New("xcbc: unknown scenario")
)

// Scenario is a parsed, validated scenario script.
type Scenario struct {
	sc *scenario.Scenario
}

// LoadScenario parses and validates scenario JSON. It never panics,
// whatever the input; all failures wrap ErrBadScenario.
func LoadScenario(data []byte) (*Scenario, error) {
	sc, err := scenario.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadScenario, err)
	}
	return &Scenario{sc: sc}, nil
}

// BuiltinScenarios lists the built-in scenario names in curated order.
func BuiltinScenarios() []string { return scenario.Builtins() }

// BuiltinScenario returns a fresh copy of a named built-in scenario.
func BuiltinScenario(name string) (*Scenario, error) {
	sc := scenario.Builtin(name)
	if sc == nil {
		return nil, wrapName(ErrUnknownScenario, name)
	}
	return &Scenario{sc: sc}, nil
}

// Name returns the scenario's name.
func (s *Scenario) Name() string { return s.sc.Name }

// Description returns the scenario's one-line description.
func (s *Scenario) Description() string { return s.sc.Description }

// Seed returns the deterministic RNG seed the run is keyed by.
func (s *Scenario) Seed() int64 { return s.sc.Seed }

// SetSeed overrides the scenario's RNG seed — the same script replayed
// under a different seed explores a different fault pattern.
func (s *Scenario) SetSeed(seed int64) { s.sc.Seed = seed }

// Members returns the fleet size the scenario runs at.
func (s *Scenario) Members() int { return s.sc.Fleet.Members }

// Phases returns how many phases the script has.
func (s *Scenario) Phases() int { return len(s.sc.Phases) }

// RequiresFreshFleet reports whether the scenario arms pre-provision
// kickstart faults and therefore must run on a fleet whose builds have
// not started (RunScenario always satisfies this; Fleet.RunScenario
// rejects the combination otherwise).
func (s *Scenario) RequiresFreshFleet() bool { return s.sc.HasKickstartFault() }

// JSON renders the scenario as indented JSON (the same form LoadScenario
// accepts).
func (s *Scenario) JSON() ([]byte, error) { return s.sc.Encode() }

// FleetSpec returns the fleet sizing a standalone run would use.
func (s *Scenario) FleetSpec() FleetSpec {
	spec := s.sc.FleetSpec()
	return FleetSpec{
		Name: spec.Name, Members: spec.Members, Cluster: spec.Cluster,
		Nodes: spec.Nodes, Scheduler: spec.Scheduler,
		Parallelism: spec.Parallelism, Retries: spec.Retries, Workers: spec.Workers,
	}
}

// TraceEvent is one entry of a scenario trace.
type TraceEvent struct {
	Seq    int    `json:"seq"`
	Phase  int    `json:"phase"` // index into the scenario's phases, -1 for run-level entries
	Kind   string `json:"kind"`
	Member string `json:"member,omitempty"`
	Node   string `json:"node,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// AppendJSON appends the event's JSON encoding — exactly json.Marshal's
// bytes — to dst.
func (ev TraceEvent) AppendJSON(dst []byte) []byte { return scenario.Event(ev).AppendJSON(dst) }

// ScenarioStats aggregates a finished run.
type ScenarioStats struct {
	Members          int           `json:"members"`
	Ready            int           `json:"ready"`
	Failed           int           `json:"failed"`
	Cancelled        int           `json:"cancelled"`
	QuarantinedNodes int           `json:"quarantined_nodes"`
	JobsSubmitted    int           `json:"jobs_submitted"`
	JobsCancelled    int           `json:"jobs_cancelled"`
	UpdatesApplied   int           `json:"updates_applied"`
	SimulatedEnd     time.Duration `json:"simulated_end"`
}

// ScenarioResult is a finished scenario run.
type ScenarioResult struct {
	r *scenario.Result
}

// Scenario returns the name of the scenario that ran.
func (r *ScenarioResult) Scenario() string { return r.r.Scenario }

// Seed returns the seed the run used.
func (r *ScenarioResult) Seed() int64 { return r.r.Seed }

// Passed reports whether every asserted invariant held.
func (r *ScenarioResult) Passed() bool { return r.r.Passed }

// Violations returns the failed invariants, empty when Passed.
func (r *ScenarioResult) Violations() []string {
	return append([]string(nil), r.r.Violations...)
}

// Stats returns the run's aggregate numbers.
func (r *ScenarioResult) Stats() ScenarioStats {
	st := r.r.Stats
	return ScenarioStats{
		Members: st.Members, Ready: st.Ready, Failed: st.Failed,
		Cancelled: st.Cancelled, QuarantinedNodes: st.QuarantinedNodes,
		JobsSubmitted: st.JobsSubmitted, JobsCancelled: st.JobsCancelled,
		UpdatesApplied: st.UpdatesApplied, SimulatedEnd: st.SimulatedEnd,
	}
}

// Trace returns the run's event trace in order.
func (r *ScenarioResult) Trace() []TraceEvent { return r.TraceWindow(0, r.TraceLen()) }

// TraceLen returns the number of events in the trace.
func (r *ScenarioResult) TraceLen() int { return len(r.r.Events) }

// TraceWindow returns a copy of trace events [start, end), clamped to the
// trace — what a paged reader needs without copying the whole trace.
func (r *ScenarioResult) TraceWindow(start, end int) []TraceEvent {
	end = min(max(end, 0), len(r.r.Events))
	start = min(max(start, 0), end)
	out := make([]TraceEvent, end-start)
	for i, ev := range r.r.Events[start:end] {
		out[i] = TraceEvent(ev)
	}
	return out
}

// TraceJSONL renders the trace as JSON lines — the byte-stable artifact
// golden-trace regression tests compare.
func (r *ScenarioResult) TraceJSONL() []byte { return r.r.TraceJSONL() }

// RunScenario builds a fleet from the scenario's own spec and drives it
// through the script. The returned error covers mechanical failures
// (context cancellation, impossible specs); invariant violations are
// reported through the result's Passed and Violations.
func RunScenario(ctx context.Context, s *Scenario) (*ScenarioResult, error) {
	res, err := scenario.Run(ctx, s.sc)
	if err != nil {
		return nil, translateScenario(err)
	}
	return &ScenarioResult{r: res}, nil
}

// runScenarioOn is Fleet.RunScenario's implementation.
func runScenarioOn(ctx context.Context, fl *fleet.Fleet, s *Scenario) (*ScenarioResult, error) {
	return runScenarioObserved(ctx, fl, s, nil)
}

// runScenarioObserved is Fleet.RunScenarioObserved's implementation.
func runScenarioObserved(ctx context.Context, fl *fleet.Fleet, s *Scenario, obs func(TraceEvent)) (*ScenarioResult, error) {
	var inner scenario.Observer
	if obs != nil {
		inner = func(ev scenario.Event) { obs(TraceEvent(ev)) }
	}
	res, err := scenario.RunOnObserved(ctx, fl, s.sc, inner)
	if err != nil {
		return nil, translateScenario(err)
	}
	return &ScenarioResult{r: res}, nil
}

// ResultJSON renders the full result — stats, violations, and the
// complete trace — as JSON that RestoreScenarioResult round-trips. This
// is the persistence form durable stores write at run settlement.
func (r *ScenarioResult) ResultJSON() ([]byte, error) { return r.r.JSON() }

// RestoreScenarioResult reconstructs a settled scenario result from the
// JSON that ResultJSON produced — the path a restarted store takes to
// reload finished runs without replaying them.
func RestoreScenarioResult(data []byte) (*ScenarioResult, error) {
	var res scenario.Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("xcbc: restore scenario result: %w", err)
	}
	return &ScenarioResult{r: &res}, nil
}

func translateScenario(err error) error {
	if errors.Is(err, scenario.ErrBadScenario) {
		return fmt.Errorf("%w: %v", ErrBadScenario, err)
	}
	if errors.Is(err, fleet.ErrBadSpec) {
		return fmt.Errorf("%w: %v", ErrBadFleetSpec, err)
	}
	return err
}
