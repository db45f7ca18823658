// Package scenario drives a fleet of simulated clusters through a
// declarative, seed-deterministic chaos script: provision the fleet,
// inject faults (kickstart failures, node quarantine, repository outages,
// job floods), run day-2 operations (job workloads, metrics, update
// rollouts in waves), and assert invariants — emitting a machine-readable
// trace that is byte-identical for a given scenario and seed.
//
// Determinism contract (see DESIGN.md, "Fleet & scenario engine"):
//
//   - No wall-clock anywhere: time in a trace is simulated time from each
//     member's private engine, and update checks are stamped with the Unix
//     epoch.
//   - All randomness derives from Scenario.Seed. Kickstart faults use a
//     pure hash of (seed, member, node, attempt), so the decision is
//     independent of build interleaving; every other draw uses a PCG
//     stream keyed by (seed, phase index, member index) and is consumed
//     on the single runner goroutine.
//   - The trace is assembled in (phase, member index) order after each
//     phase completes, never in wall-clock completion order.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"xcbc/internal/fleet"
)

// ErrBadScenario reports a scenario that fails decoding or validation.
var ErrBadScenario = errors.New("scenario: invalid scenario")

// Phase kinds.
const (
	KindProvision = "provision" // build the fleet and trace per-member results
	KindFault     = "fault"     // inject one fault class (see Fault*)
	KindJobs      = "jobs"      // submit a fixed batch workload per member
	KindCancel    = "cancel"    // cancel a seeded sample of active jobs
	KindAdvance   = "advance"   // advance every member's virtual clock
	KindMetrics   = "metrics"   // sample and trace every member's metrics
	KindRollout   = "rollout"   // update rollout in waves across the fleet
	KindAssert    = "assert"    // evaluate invariants, record violations
)

// Fault classes for KindFault phases.
const (
	FaultKickstart  = "kickstart"   // seeded per-attempt install failures
	FaultQuarantine = "quarantine"  // fail N compute nodes per member
	FaultRepoOutage = "repo-outage" // disable the XNIT repo on a seeded subset
	FaultJobFlood   = "job-flood"   // burst of seeded job submissions
)

// Invariant names for KindAssert phases.
const (
	InvAllReady       = "all-ready"       // every member settled ready
	InvMinReady       = "min-ready"       // at least Limit members ready
	InvMaxQuarantined = "max-quarantined" // <= Limit quarantined nodes fleet-wide
	InvJobsConserved  = "jobs-conserved"  // no member lost a submitted job
)

// Duration is a time.Duration that marshals as a Go duration string
// ("30m", "2h") in scenario JSON.
type Duration time.Duration

// UnmarshalJSON accepts a Go duration string.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("duration must be a string like \"30m\": %w", err)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("bad duration %q: %w", s, err)
	}
	*d = Duration(v)
	return nil
}

// MarshalJSON renders the duration string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// FleetSpec sizes the fleet a scenario runs on.
type FleetSpec struct {
	Members     int    `json:"members"`
	Cluster     string `json:"cluster,omitempty"`
	Nodes       int    `json:"nodes,omitempty"`
	Scheduler   string `json:"scheduler,omitempty"`
	Parallelism int    `json:"parallelism,omitempty"`
	Retries     int    `json:"retries,omitempty"`
	Workers     int    `json:"workers,omitempty"`
}

// Invariant is one checked condition in an assert phase.
type Invariant struct {
	Name  string `json:"name"`
	Limit int    `json:"limit,omitempty"`
}

// Phase is one step of a scenario. Kind selects which of the remaining
// fields apply; Validate rejects combinations that make no sense.
type Phase struct {
	Kind string `json:"kind"`

	// Fault fields (KindFault).
	Fault       string  `json:"fault,omitempty"`
	Probability float64 `json:"probability,omitempty"` // kickstart, repo-outage
	Count       int     `json:"count,omitempty"`       // quarantine, job-flood, jobs, cancel
	MaxCores    int     `json:"max_cores,omitempty"`   // job-flood

	// Workload fields (KindJobs).
	Cores    int      `json:"cores,omitempty"`
	Runtime  Duration `json:"runtime,omitempty"`
	Walltime Duration `json:"walltime,omitempty"`

	// KindAdvance.
	Duration Duration `json:"duration,omitempty"`

	// KindRollout.
	Wave    int    `json:"wave,omitempty"`    // members per wave; 0 = whole fleet
	Policy  string `json:"policy,omitempty"`  // notify, auto-apply, security-only
	Package string `json:"package,omitempty"` // publish this update first
	Version string `json:"version,omitempty"` // version for the published update

	// KindAssert.
	Invariants []Invariant `json:"invariants,omitempty"`
}

// Scenario is a complete declarative script.
type Scenario struct {
	Name        string    `json:"name"`
	Description string    `json:"description,omitempty"`
	Seed        int64     `json:"seed"`
	Fleet       FleetSpec `json:"fleet"`
	Phases      []Phase   `json:"phases"`
}

// HasKickstartFault reports whether any phase arms pre-provision
// kickstart faults; such scenarios must run on a fleet that has not
// started building (see RunOn).
func (s *Scenario) HasKickstartFault() bool {
	for _, p := range s.Phases {
		if p.Kind == KindFault && p.Fault == FaultKickstart {
			return true
		}
	}
	return false
}

// FleetSpec converts the scenario's fleet sizing to the fleet package's
// spec, using the scenario name as the fleet label.
func (s *Scenario) FleetSpec() fleet.Spec {
	return fleet.Spec{
		Name:        s.Name,
		Members:     s.Fleet.Members,
		Cluster:     s.Fleet.Cluster,
		Nodes:       s.Fleet.Nodes,
		Scheduler:   s.Fleet.Scheduler,
		Parallelism: s.Fleet.Parallelism,
		Retries:     s.Fleet.Retries,
		Workers:     s.Fleet.Workers,
	}
}

// Decode parses and validates scenario JSON. Unknown fields, unknown phase
// or fault kinds, negative counts, and out-of-range probabilities are all
// errors (wrapped in ErrBadScenario) — never panics, whatever the input.
func Decode(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadScenario, err)
	}
	// Trailing garbage after the scenario object is a malformed script.
	if dec.More() {
		return nil, fmt.Errorf("%w: trailing data after scenario object", ErrBadScenario)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// Encode renders the scenario as indented JSON.
func (s *Scenario) Encode() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

func bad(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadScenario, fmt.Sprintf(format, args...))
}

// Validate checks the scenario's structure.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return bad("name is required")
	}
	if err := s.FleetSpec().Validate(); err != nil {
		return bad("fleet: %v", err)
	}
	if len(s.Phases) == 0 {
		return bad("at least one phase is required")
	}
	for i, p := range s.Phases {
		if err := p.validate(); err != nil {
			return bad("phase %d (%s): %v", i, p.Kind, err)
		}
	}
	return nil
}

// phaseFields names every kind-specific Phase field and reports whether it
// carries a value — the table Phase.validate uses to reject fields that do
// not apply to the phase's kind (a "provision" phase with a probability, a
// "jobs" phase with a rollout wave). Dead knobs in a script are almost
// always a typo'd kind or a copy-paste error; silently ignoring them hides
// the mistake from both hand-written and generated scenarios.
var phaseFields = []struct {
	name string
	set  func(*Phase) bool
}{
	{"fault", func(p *Phase) bool { return p.Fault != "" }},
	{"probability", func(p *Phase) bool { return p.Probability != 0 }},
	{"count", func(p *Phase) bool { return p.Count != 0 }},
	{"max_cores", func(p *Phase) bool { return p.MaxCores != 0 }},
	{"cores", func(p *Phase) bool { return p.Cores != 0 }},
	{"runtime", func(p *Phase) bool { return p.Runtime != 0 }},
	{"walltime", func(p *Phase) bool { return p.Walltime != 0 }},
	{"duration", func(p *Phase) bool { return p.Duration != 0 }},
	{"wave", func(p *Phase) bool { return p.Wave != 0 }},
	{"policy", func(p *Phase) bool { return p.Policy != "" }},
	{"package", func(p *Phase) bool { return p.Package != "" }},
	{"version", func(p *Phase) bool { return p.Version != "" }},
	{"invariants", func(p *Phase) bool { return len(p.Invariants) > 0 }},
}

// kindFields is the allow-list per phase kind. Fault phases narrow it
// further per fault class (faultFields).
var kindFields = map[string][]string{
	KindProvision: {},
	KindMetrics:   {},
	KindFault:     {"fault", "probability", "count", "max_cores"},
	KindJobs:      {"count", "cores", "runtime", "walltime"},
	KindCancel:    {"count"},
	KindAdvance:   {"duration"},
	KindRollout:   {"wave", "policy", "package", "version"},
	KindAssert:    {"invariants"},
}

// faultFields is the allow-list per fault class: a kickstart fault with a
// count, or a quarantine fault with a probability, is a dead knob too.
var faultFields = map[string][]string{
	FaultKickstart:  {"fault", "probability"},
	FaultQuarantine: {"fault", "count"},
	FaultRepoOutage: {"fault", "probability"},
	FaultJobFlood:   {"fault", "count", "max_cores"},
}

// checkNoStrayFields rejects any set field outside the allowed list.
func (p *Phase) checkNoStrayFields(allowed []string) error {
	for _, f := range phaseFields {
		if !f.set(p) {
			continue
		}
		ok := false
		for _, a := range allowed {
			if f.name == a {
				ok = true
				break
			}
		}
		if !ok {
			where := p.Kind
			if p.Kind == KindFault && p.Fault != "" {
				where = p.Fault + " fault"
			}
			return fmt.Errorf("field %q does not apply to a %s phase", f.name, where)
		}
	}
	return nil
}

func (p *Phase) validate() error {
	if p.Count < 0 {
		return fmt.Errorf("negative count %d", p.Count)
	}
	if p.Probability < 0 || p.Probability > 1 {
		return fmt.Errorf("probability %v outside [0,1]", p.Probability)
	}
	if p.MaxCores < 0 || p.Cores < 0 || p.Wave < 0 {
		return fmt.Errorf("negative max_cores, cores, or wave")
	}
	if p.Runtime < 0 || p.Walltime < 0 || p.Duration < 0 {
		return fmt.Errorf("negative duration field")
	}
	if allowed, ok := kindFields[p.Kind]; ok {
		if p.Kind == KindFault {
			if fa, ok := faultFields[p.Fault]; ok {
				allowed = fa
			}
		}
		if err := p.checkNoStrayFields(allowed); err != nil {
			return err
		}
	}
	switch p.Kind {
	case KindProvision, KindMetrics:
		return nil
	case KindFault:
		switch p.Fault {
		case FaultKickstart:
			if p.Probability == 0 {
				return fmt.Errorf("kickstart fault needs probability > 0")
			}
		case FaultQuarantine:
			if p.Count == 0 {
				return fmt.Errorf("quarantine fault needs count > 0")
			}
		case FaultRepoOutage:
			if p.Probability == 0 {
				return fmt.Errorf("repo-outage fault needs probability > 0")
			}
		case FaultJobFlood:
			if p.Count == 0 {
				return fmt.Errorf("job-flood fault needs count > 0")
			}
			if p.MaxCores == 0 {
				return fmt.Errorf("job-flood fault needs max_cores > 0")
			}
		case "":
			return fmt.Errorf("fault kind is required")
		default:
			return fmt.Errorf("unknown fault kind %q", p.Fault)
		}
		return nil
	case KindJobs:
		if p.Count == 0 {
			return fmt.Errorf("jobs phase needs count > 0")
		}
		if p.Cores == 0 {
			return fmt.Errorf("jobs phase needs cores > 0 (a zero-core job is degenerate)")
		}
		return nil
	case KindCancel:
		if p.Count == 0 {
			return fmt.Errorf("cancel phase needs count > 0")
		}
		return nil
	case KindAdvance:
		if p.Duration == 0 {
			return fmt.Errorf("advance phase needs a positive duration")
		}
		return nil
	case KindRollout:
		switch p.Policy {
		case "", "notify", "auto-apply", "security-only":
		default:
			return fmt.Errorf("unknown rollout policy %q", p.Policy)
		}
		if (p.Package == "") != (p.Version == "") {
			return fmt.Errorf("rollout package and version go together")
		}
		return nil
	case KindAssert:
		if len(p.Invariants) == 0 {
			return fmt.Errorf("assert phase needs at least one invariant")
		}
		for _, inv := range p.Invariants {
			switch inv.Name {
			case InvAllReady, InvJobsConserved:
				if inv.Limit != 0 {
					return fmt.Errorf("invariant %s takes no limit", inv.Name)
				}
			case InvMinReady, InvMaxQuarantined:
				if inv.Limit < 0 {
					return fmt.Errorf("invariant %s: negative limit %d", inv.Name, inv.Limit)
				}
			case "":
				return fmt.Errorf("invariant name is required")
			default:
				return fmt.Errorf("unknown invariant %q", inv.Name)
			}
		}
		return nil
	case "":
		return fmt.Errorf("kind is required")
	default:
		return fmt.Errorf("unknown phase kind %q", p.Kind)
	}
}
