// Package xcbc is the public SDK for the XCBC/XNIT cluster toolkit: a
// stable facade over the internal packages that implement the paper's two
// contributions, the XSEDE-compatible basic cluster build (XCBC, bare metal
// via Rocks) and the XSEDE National Integration Toolkit (XNIT, in-place
// conversion via the XSEDE Yum repository).
//
// Both deployment paths are expressed as Builders:
//
//	d, err := xcbc.NewXCBC(
//	        xcbc.WithCluster("littlefe"),
//	        xcbc.WithScheduler("torque"),
//	        xcbc.WithRolls("ganglia", "hpc"),
//	).Deploy(ctx)
//
// builds a cluster from scratch, while
//
//	vendor, err := xcbc.NewVendor(xcbc.WithCluster("limulus")).Deploy(ctx)
//	d, err := xcbc.NewXNIT(vendor,
//	        xcbc.WithProfiles("compilers", "python"),
//	        xcbc.WithScheduler("torque"),
//	).Deploy(ctx)
//
// adopts an existing vendor-managed machine in place.
//
// Deploy blocks; Start is the asynchronous surface. It validates the
// request synchronously, then runs the build as a job on a bounded worker
// pool and returns a Handle immediately:
//
//	h, err := xcbc.NewXCBC(
//	        xcbc.WithCluster("littlefe"),
//	        xcbc.WithParallelism(8), // 8 overlapping kickstarts per wave
//	        xcbc.WithRetries(1),     // retry a failed node once, then quarantine
//	).Start(ctx)
//	...
//	events, cursor := h.Events(0) // capped journal, cursor-resumable
//	d, err := h.Wait(ctx)         // or h.Cancel(); h.Status()
//
// Compute nodes kickstart in waves of WithParallelism overlapping
// installs (a wave's simulated cost is its slowest member, not the sum);
// failed nodes retry with backoff and are quarantined rather than
// aborting the build (Deployment.Quarantined). Cancellation lands between
// waves, so no node is ever left half-kickstarted. Progress reaches the
// Handle's journal and any WithProgress callback. Failures wrap the
// package's sentinel errors (ErrUnknownRoll, ErrDepCycle, ...) so callers
// can branch with errors.Is; each is the deciding internal package's own
// error, re-exported, so a failure carries one message.
//
// A ready deployment is operated through the Cluster resource — the
// concurrency-safe day-2 surface. Handle.Cluster opens it once the build
// settles (ErrNotReady before that); Builder.Open builds and opens in one
// call:
//
//	cl, err := xcbc.NewXCBC(xcbc.WithCluster("littlefe")).Open(ctx)
//	...
//	job, err := cl.SubmitJob(xcbc.JobSpec{Name: "relax", User: "alice",
//	        Cores: 4, Walltime: time.Hour, Runtime: 20 * time.Minute})
//	cl.Advance(30 * time.Minute)  // virtual time: the job completes
//	m := cl.Metrics()             // the last once-a-minute poll, its alerts
//	v, err := cl.Validate()       // HPL model + measured smoke solve
//	u := cl.CheckUpdates(xcbc.UpdateNotify, time.Now())
//
// Every Cluster operation is serialized through one adapter per
// Deployment, making the combination of scheduler, monitor, and the shared
// discrete-event engine safe to drive from concurrent goroutines (HTTP
// handlers in particular). Monitoring polls on that engine once a virtual
// minute from the first Cluster on, so a deployment that has handed one
// out is driven with Advance, never Engine().Run. The Deployment type
// remains the build-time view — install facts, subsystem escape hatches,
// package installs, scheduler swaps, and compatibility reports.
//
// The values the SDK hands out (Event, JobInfo, NodeMetrics,
// ClusterMetrics, Validation, FleetStatus, TraceEvent, ScenarioStats and
// the campaign results) are aliases of the internal types that produce
// them, so the facade returns them as made, never copied field by field.
//
// The HTTP control plane in pkg/xcbc/api serves this SDK as a versioned
// JSON REST API: deployments at /api/v1/deployments, the day-2 cluster
// surface at /api/v1/clusters/{id} (jobs, metrics, alerts, validate,
// updates, advance), and a discovery document at GET /api/v1. With
// api.Config.Tenants the control plane is multi-tenant: API keys, per-
// tenant rate limits and quotas, and per-tenant durable state (clients
// send Authorization: Bearer <key>; clusterctl takes -api-key). See
// DESIGN.md at the repository root for the architecture and the API
// versioning policy.
package xcbc
