package api

// Recovery's decoder for the journal: the types internal/jsonread walks a
// snapshot and every record into (DESIGN.md).

import (
	"encoding/json"
	"fmt"
	"slices"

	"xcbc/internal/jsonread"
	"xcbc/pkg/xcbc"
)

// decodeJSON decodes data into v, whose type into must take.
func decodeJSON(data []byte, v any) error {
	r := jsonread.New(data)
	if !into(&r, v) {
		return fmt.Errorf("no decoder for %T", v)
	}
	return r.End()
}

// rows decodes a snapshot's map of rows as encoding/json does (into the map
// there is, each key a new row, null a nil map), except that it refuses a
// null row, which materialize would dereference.
func rows[T any](r *jsonread.Reader, p *map[string]*T, kind string) {
	if r.Null() {
		*p = nil
		return
	}
	if *p == nil {
		*p = make(map[string]*T)
	}
	r.Object(func(id []byte) {
		v := new(T)
		if (*p)[string(id)] = v; r.Null() {
			r.Fail("null " + kind + " row " + string(id))
		}
		into(r, v)
	})
}

// fields decodes an object into ptrs, the fields named names; one of a type
// into does not take fails the decode.
func fields(r *jsonread.Reader, names []string, ptrs ...any) {
	r.Fields(names, func(p any) bool { return into(r, p) }, ptrs...)
}

// into decodes into v if it points to a type of the journal, or to a field
// of one, reporting whether.
func into(r *jsonread.Reader, v any) bool {
	switch v := v.(type) {
	case *[]eventInfo:
		jsonread.List(r, v, func(e *eventInfo) { into(r, e) })
	case *[]clusterOpRec:
		jsonread.List(r, v, func(op *clusterOpRec) { into(r, op) })
	case *opLog:
		v.scan(r)
	case **submitJobRequest:
		jsonread.Ptr(r, v, func(job *submitJobRequest) { into(r, job) })
	case **depSummary:
		jsonread.Ptr(r, v, func(sum *depSummary) { into(r, sum) })
	case *[]*runMirror:
		jsonread.List(r, v, func(run **runMirror) { jsonread.Ptr(r, run, func(run *runMirror) { into(r, run) }) })
	case **bool:
		jsonread.Ptr(r, v, func(b *bool) { r.Value(b) })
	case *json.RawMessage:
		r.Raw(v.UnmarshalJSON)
	case **xcbc.ScenarioResult:
		jsonread.Ptr(r, v, func(res *xcbc.ScenarioResult) { r.Raw(res.UnmarshalJSON) })
	case *map[string]*depMirror:
		rows(r, v, "deployment")
	case *map[string]*fleetMirror:
		rows(r, v, "fleet")
	case *map[string]*campaignMirror:
		rows(r, v, "campaign")
	case *mirror:
		fields(r, []string{"deployments", "fleets", "campaigns", "next_id", "next_fleet_id", "next_campaign_id"},
			&v.Deployments, &v.Fleets, &v.Campaigns, &v.NextID, &v.NextFleetID, &v.NextCampaignID)
	case *depMirror:
		fields(r, []string{"created", "events", "ops", "state", "error", "summary"}, &v.Created, &v.Events, &v.Ops, &v.State, &v.Error, &v.Summary)
	case *depCreatedRec:
		fields(r, []string{"id", "path", "req", "created", "cluster", "site", "nodes"},
			&v.ID, &v.Path, &v.Req, &v.Created, &v.Cluster, &v.Site, &v.Nodes)
	case *createDeploymentRequest:
		fields(r, []string{"cluster", "path", "scheduler", "rolls", "profiles", "node_count", "parallelism", "retries"},
			&v.Cluster, &v.Path, &v.Scheduler, &v.Rolls, &v.Profiles, &v.NodeCount, &v.Parallelism, &v.Retries)
	case *eventInfo:
		fields(r, []string{"seq", "stage", "node", "message", "packages", "elapsed"},
			&v.Seq, &v.Stage, &v.Node, &v.Message, &v.Packages, &v.Elapsed)
	case *depEventRec:
		fields(r, []string{"id", "event"}, &v.ID, &v.Event)
	case *depSettledRec:
		fields(r, []string{"id", "state", "error", "events", "summary"}, &v.ID, &v.State, &v.Error, &v.Events, &v.Summary)
	case *depSummary:
		fields(r, []string{"scheduler", "packages_installed", "install_duration", "quarantined", "compat_passed", "compat_total", "next_cursor"},
			&v.Scheduler, &v.PackagesInstalled, &v.InstallDuration, &v.Quarantined, &v.CompatPassed, &v.CompatTotal, &v.NextCursor)
	case *depDeletedRec:
		fields(r, []string{"id"}, &v.ID)
	case *clusterOpRec:
		fields(r, []string{"id", "op", "job", "job_id", "duration", "policy", "at", "compat_passed", "compat_total"},
			&v.ID, &v.Op, &v.Job, &v.JobID, &v.Duration, &v.Policy, &v.At, &v.CompatPassed, &v.CompatTotal)
	case *submitJobRequest:
		fields(r, []string{"name", "user", "cores", "walltime", "runtime", "script"},
			&v.Name, &v.User, &v.Cores, &v.Walltime, &v.Runtime, &v.Script)
	case *fleetMirror:
		fields(r, []string{"created", "provisioned", "runs"}, &v.Created, &v.Provisioned, &v.Runs)
		if i := slices.Index(v.Runs, nil); i >= 0 {
			r.Fail(fmt.Sprintf("null run row %d of fleet %s", i, v.Created.ID))
		}
	case *fleetCreatedRec:
		fields(r, []string{"id", "name", "req", "created", "provisioned"}, &v.ID, &v.Name, &v.Req, &v.Created, &v.Provisioned)
	case *createFleetRequest:
		fields(r, []string{"name", "members", "cluster", "nodes", "scheduler", "parallelism", "retries", "workers", "provision"},
			&v.Name, &v.Members, &v.Cluster, &v.Nodes, &v.Scheduler, &v.Parallelism, &v.Retries, &v.Workers, &v.Provision)
	case *fleetMemberRec:
		fields(r, nil)
	case *fleetProvisionedRec:
		fields(r, []string{"id"}, &v.ID)
	case *fleetDeletedRec:
		fields(r, []string{"id"}, &v.ID)
	case *runMirror:
		fields(r, []string{"started", "cursor", "hash", "state", "error", "result"}, &v.Started, &v.Cursor, &v.Hash, &v.State, &v.Error, &v.Result)
	case *scenarioStartedRec:
		fields(r, []string{"fleet_id", "run_id", "name", "scenario", "created"}, &v.FleetID, &v.RunID, &v.Name, &v.Scenario, &v.Created)
	case *scenarioProgressRec:
		fields(r, []string{"fleet_id", "run_id", "cursor", "hash"}, &v.FleetID, &v.RunID, &v.Cursor, &v.Hash)
	case *scenarioSettledRec:
		fields(r, []string{"fleet_id", "run_id", "state", "error", "result"}, &v.FleetID, &v.RunID, &v.State, &v.Error, &v.Result)
	case *campaignMirror:
		fields(r, []string{"started", "outcomes", "state", "error"}, &v.Started, &v.Outcomes, &v.State, &v.Error)
	case *campaignStartedRec:
		fields(r, []string{"id", "spec", "created"}, &v.ID, &v.Spec, &v.Created)
	case *campaignSeedRec:
		fields(r, []string{"id", "outcome"}, &v.ID, &v.Outcome)
	case *campaignSettledRec:
		fields(r, []string{"id", "state", "error"}, &v.ID, &v.State, &v.Error)
	case *xcbc.CampaignSpec:
		fields(r, []string{"seeds", "start_seed", "workers", "shrink_budget"}, &v.Seeds, &v.StartSeed, &v.Workers, &v.ShrinkBudget)
	case *[]xcbc.CampaignSeedOutcome:
		jsonread.List(r, v, func(out *xcbc.CampaignSeedOutcome) { into(r, out) })
	case *xcbc.CampaignSeedOutcome:
		fields(r, []string{"seed", "state", "violations", "error", "failure"}, &v.Seed, &v.State, &v.Violations, &v.Error, &v.Failure)
	case **xcbc.CampaignFailure:
		jsonread.Ptr(r, v, func(f *xcbc.CampaignFailure) {
			fields(r, []string{"seed", "violations", "repro", "repro_phases", "shrink_evals"}, &f.Seed, &f.Violations, &f.Repro, &f.ReproPhases, &f.ShrinkEvals)
		})
	default:
		return false
	}
	return true
}
