package scenario

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"sort"
	"strconv"
	"time"

	"xcbc/internal/core"
	"xcbc/internal/depsolve"
	"xcbc/internal/fleet"
	"xcbc/internal/orchestrator"
	"xcbc/internal/rpm"
	"xcbc/internal/sched"
)

// updateEpoch stamps update-check notifications: fixed at the Unix epoch so
// traces never depend on wall-clock time.
var updateEpoch = time.Unix(0, 0).UTC()

// rollKickstart decides one install attempt's fate as a pure function of
// (seed, member, node, attempt): the draw is identical however the worker
// pool interleaves builds, which is what keeps kickstart chaos
// reproducible.
func rollKickstart(seed int64, member, node string, attempt int) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%d", seed, member, node, attempt)
	return float64(h.Sum64()>>11) / float64(1<<53)
}

// phaseRNG returns the deterministic random stream for one (phase, member)
// pair. A fresh stream per pair keeps draws independent of phase ordering
// edits and of how many draws earlier members consumed.
func phaseRNG(seed int64, phase, member int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%d", seed, phase, member)
	return rand.New(rand.NewPCG(uint64(seed), h.Sum64()))
}

// Run builds a fleet from the scenario's spec and drives it through the
// script. The returned error covers mechanical failures (context
// cancelled, impossible spec); invariant violations and chaotic build
// failures are scenario *data*, reported in the Result.
func Run(ctx context.Context, sc *Scenario) (*Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	fl, err := fleet.New(sc.FleetSpec())
	if err != nil {
		return nil, err
	}
	return RunOn(ctx, fl, sc)
}

// Observer receives every trace event as the runner emits it, in trace
// order on the runner's goroutine — the storage seam a write-ahead log
// taps to record run progress. Observers must not mutate the event or
// touch the fleet; the trace they see is exactly Result.Events.
type Observer func(Event)

// RunOn drives an existing fleet through the script — the control plane's
// path, where the fleet resource exists independently of any one scenario.
// The fleet's size must match the scenario's member count; a fleet that is
// already provisioned skips the build inside provision phases but still
// traces per-member results.
func RunOn(ctx context.Context, fl *fleet.Fleet, sc *Scenario) (*Result, error) {
	return RunOnObserved(ctx, fl, sc, nil)
}

// RunOnObserved is RunOn with a progress observer (nil behaves like
// RunOn).
func RunOnObserved(ctx context.Context, fl *fleet.Fleet, sc *Scenario, obs Observer) (*Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if fl.Len() != sc.Fleet.Members {
		return nil, fmt.Errorf("%w: fleet has %d members, scenario wants %d",
			ErrBadScenario, fl.Len(), sc.Fleet.Members)
	}
	// Seeded kickstart faults must be armed before any build starts; on a
	// fleet that is already provisioning (or provisioned) the hook would
	// only catch whichever attempts happen to still be pending — a
	// wall-clock race that breaks the byte-identical trace contract — so
	// reject the combination instead of silently losing determinism.
	if fl.Provisioned() && sc.HasKickstartFault() {
		return nil, fmt.Errorf("%w: scenario arms kickstart faults but the fleet is already provisioned; "+
			"run kickstart scenarios on a fresh fleet", ErrBadScenario)
	}
	r := &runner{
		sc:        sc,
		fl:        fl,
		members:   fl.Members(),
		obs:       obs,
		submitted: make([]int, fl.Len()),
		baseline:  make([]int, fl.Len()),
		// Most phases trace one event per member; a few trace a handful.
		res: &Result{Scenario: sc.Name, Seed: sc.Seed,
			Events: newEventBuf(len(sc.Phases)*(fl.Len()+2) + 2)},
	}
	for i := range r.baseline {
		r.baseline[i] = -1
	}
	return r.run(ctx)
}

// runner executes one scenario. All phases run on the caller's goroutine;
// only provisioning fans out (inside the fleet's worker pool).
type runner struct {
	sc        *Scenario
	fl        *fleet.Fleet
	members   []*fleet.Member // snapshot of fl.Members(), fixed for the run
	obs       Observer
	res       *Result
	submitted []int // jobs submitted by THIS run, per member index
	baseline  []int // jobs already on the member at first touch (-1 = untouched)
	failed    int   // compute nodes this run failed via the quarantine fault
	cancelled int
	applied   int
	d         detail // scratch the per-member trace details are built in
}

// detail builds one trace detail ("key=value key=value") by appending into
// a buffer the runner reuses, so an event costs the one string it keeps and
// nothing for boxing or formatting. String ends a detail and resets the
// buffer for the next.
type detail struct {
	b []byte
	// The last duration rendered: members of a uniform fleet report the
	// same install time, runtime and clock one after another.
	lastDur  time.Duration
	lastText string
}

func (d *detail) int(key string, v int) *detail {
	d.b = strconv.AppendInt(append(d.b, key...), int64(v), 10)
	return d
}

func (d *detail) dur(key string, v time.Duration) *detail {
	if v != d.lastDur || d.lastText == "" {
		d.lastDur, d.lastText = v, v.String()
	}
	d.b = append(append(d.b, key...), d.lastText...)
	return d
}

// float3 appends v as %.3f.
func (d *detail) float3(key string, v float64) *detail {
	d.b = strconv.AppendFloat(append(d.b, key...), v, 'f', 3, 64)
	return d
}

func (d *detail) String() string {
	s := string(d.b)
	d.b = d.b[:0]
	return s
}

// jobNames formats a phase's job and user names once: "<job>-<phase>-<i>"
// for each of count jobs and "<user>-<k>" for each of users users. Every
// member's jobs then share the same strings.
func jobNames(job, user string, phase, count, users int) (names, owners []string) {
	names, owners = make([]string, count), make([]string, users)
	for i := range names {
		names[i] = job + "-" + strconv.Itoa(phase) + "-" + strconv.Itoa(i)
	}
	for k := range owners {
		owners[k] = user + "-" + strconv.Itoa(k)
	}
	return names, owners
}

func (r *runner) emit(phase int, kind, member, node, detail string) {
	ev := Event{
		Seq: len(r.res.Events), Phase: phase, Kind: kind,
		Member: member, Node: node, Detail: detail,
	}
	r.res.Events = append(r.res.Events, ev)
	if r.obs != nil {
		r.obs(ev)
	}
}

func (r *runner) run(ctx context.Context) (*Result, error) {
	r.emit(-1, "scenario.start", "", "",
		fmt.Sprintf("name=%s seed=%d members=%d cluster=%s", r.sc.Name, r.sc.Seed,
			r.sc.Fleet.Members, r.fl.Spec().Cluster))
	for i := range r.sc.Phases {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p := &r.sc.Phases[i]
		var err error
		switch p.Kind {
		case KindProvision:
			err = r.provision(ctx, i)
		case KindFault:
			err = r.fault(i, p)
		case KindJobs:
			err = r.jobs(i, p)
		case KindCancel:
			err = r.cancelJobs(i, p)
		case KindAdvance:
			r.advance(i, p)
		case KindMetrics:
			r.metrics(i)
		case KindRollout:
			err = r.rollout(i, p)
		case KindAssert:
			r.assert(i, p)
		}
		if err != nil {
			return nil, err
		}
	}
	r.finish()
	return r.res, nil
}

// readyOps returns the member's day-2 adapter, or nil for members that are
// not operable (failed, cancelled, unprovisioned) — chaos scenarios keep
// going with whoever survived. First touch records how many jobs the
// member already carried (earlier scenario runs on the same fleet), so
// jobs-conserved checks this run's delta rather than all history.
func (r *runner) readyOps(m *fleet.Member) *core.Operations {
	ops, err := m.Operations()
	if err != nil {
		return nil
	}
	if r.baseline[m.Index] < 0 {
		r.baseline[m.Index] = ops.JobCount()
	}
	return ops
}

func (r *runner) provision(ctx context.Context, phase int) error {
	err := r.fl.Provision(ctx)
	if err != nil && !errors.Is(err, fleet.ErrAlreadyProvisioned) {
		return err
	}
	if err := r.fl.Wait(ctx); err != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	for _, m := range r.members {
		switch m.State() {
		case orchestrator.StateReady:
			d, _ := m.Deployment()
			quarantined := append([]string(nil), d.Quarantined...)
			sort.Strings(quarantined)
			r.emit(phase, "provision.ready", m.ID, "", r.d.int("packages=", d.PackagesInstalled).
				dur(" duration=", d.InstallDuration).int(" quarantined=", len(quarantined)).String())
			for _, node := range quarantined {
				r.emit(phase, "provision.quarantine", m.ID, node, "")
			}
		case orchestrator.StateFailed:
			r.emit(phase, "provision.failed", m.ID, "", m.Err().Error())
		case orchestrator.StateCancelled:
			r.emit(phase, "provision.cancelled", m.ID, "", "")
		default:
			r.emit(phase, "provision.unsettled", m.ID, "", m.State().String())
		}
	}
	return nil
}

func (r *runner) fault(phase int, p *Phase) error {
	switch p.Fault {
	case FaultKickstart:
		seed, prob := r.sc.Seed, p.Probability
		for _, m := range r.members {
			member := m.ID
			m.SetInstallHook(func(node string, attempt int) error {
				if rollKickstart(seed, member, node, attempt) < prob {
					return fmt.Errorf("injected kickstart fault (attempt %d)", attempt)
				}
				return nil
			})
		}
		r.emit(phase, "fault.kickstart", "", "",
			fmt.Sprintf("armed probability=%.3f members=%d", prob, r.fl.Len()))
	case FaultQuarantine:
		for _, m := range r.members {
			ops := r.readyOps(m)
			if ops == nil {
				continue
			}
			rng := phaseRNG(r.sc.Seed, phase, m.Index)
			computes := m.Hardware().Computes
			// Pick p.Count distinct compute nodes.
			idx := rng.Perm(len(computes))
			n := p.Count
			if n > len(idx) {
				n = len(idx)
			}
			picked := make([]string, 0, n)
			for _, k := range idx[:n] {
				picked = append(picked, computes[k].Name)
			}
			sort.Strings(picked)
			for _, node := range picked {
				if err := ops.FailNode(node); err != nil {
					r.emit(phase, "fault.quarantine.error", m.ID, node, err.Error())
					continue
				}
				r.failed++
				r.emit(phase, "fault.quarantine", m.ID, node, "node failed, jobs requeued")
			}
		}
	case FaultRepoOutage:
		for _, m := range r.members {
			ops := r.readyOps(m)
			if ops == nil {
				continue
			}
			rng := phaseRNG(r.sc.Seed, phase, m.Index)
			if rng.Float64() >= p.Probability {
				continue
			}
			if err := m.AdoptXNIT(); err != nil {
				return err
			}
			d, _ := m.Deployment()
			d.Repos.Enable(core.XNITRepoID, false)
			r.emit(phase, "fault.repo-outage", m.ID, "", core.XNITRepoID+" disabled")
		}
	case FaultJobFlood:
		maxCores := p.MaxCores
		if maxCores < 1 {
			maxCores = 1
		}
		names, users := jobNames("flood", "chaos", phase, p.Count, 4)
		for _, m := range r.members {
			ops := r.readyOps(m)
			if ops == nil {
				continue
			}
			rng := phaseRNG(r.sc.Seed, phase, m.Index)
			accepted, rejected := 0, 0
			for i := 0; i < p.Count; i++ {
				runtime := time.Duration(5+rng.IntN(56)) * time.Minute
				job := &sched.Job{
					Name:     names[i],
					User:     users[i%4],
					Cores:    1 + rng.IntN(maxCores),
					Runtime:  runtime,
					Walltime: 2 * runtime,
				}
				if _, err := ops.SubmitJob(job); err != nil {
					rejected++
					continue
				}
				accepted++
			}
			r.submitted[m.Index] += accepted
			r.emit(phase, "fault.job-flood", m.ID, "",
				r.d.int("submitted=", accepted).int(" rejected=", rejected).String())
		}
	}
	return nil
}

func (r *runner) jobs(phase int, p *Phase) error {
	cores := p.Cores
	if cores < 1 {
		cores = 1
	}
	runtime := time.Duration(p.Runtime)
	if runtime == 0 {
		runtime = 30 * time.Minute
	}
	walltime := time.Duration(p.Walltime)
	if walltime == 0 {
		walltime = 2 * runtime
	}
	names, users := jobNames("batch", "user", phase, p.Count, 3)
	for _, m := range r.members {
		ops := r.readyOps(m)
		if ops == nil {
			continue
		}
		accepted := 0
		for i := 0; i < p.Count; i++ {
			job := &sched.Job{
				Name:     names[i],
				User:     users[i%3],
				Cores:    cores,
				Runtime:  runtime,
				Walltime: walltime,
			}
			if _, err := ops.SubmitJob(job); err != nil {
				r.emit(phase, "jobs.rejected", m.ID, "", err.Error())
				continue
			}
			accepted++
		}
		r.submitted[m.Index] += accepted
		r.emit(phase, "jobs.submitted", m.ID, "",
			r.d.int("count=", accepted).int(" cores=", cores).dur(" runtime=", runtime).String())
	}
	return nil
}

func (r *runner) cancelJobs(phase int, p *Phase) error {
	for _, m := range r.members {
		ops := r.readyOps(m)
		if ops == nil {
			continue
		}
		var active []int
		for _, v := range ops.Jobs() {
			if v.State == "queued" || v.State == "running" {
				active = append(active, v.ID)
			}
		}
		rng := phaseRNG(r.sc.Seed, phase, m.Index)
		cancelled := 0
		for i := 0; i < p.Count && len(active) > 0; i++ {
			k := rng.IntN(len(active))
			id := active[k]
			active = append(active[:k], active[k+1:]...)
			if err := ops.CancelJob(id); err != nil {
				r.emit(phase, "cancel.error", m.ID, "", err.Error())
				continue
			}
			cancelled++
		}
		r.cancelled += cancelled
		r.emit(phase, "cancel", m.ID, "", r.d.int("cancelled=", cancelled).String())
	}
	return nil
}

func (r *runner) advance(phase int, p *Phase) {
	d := time.Duration(p.Duration)
	for _, m := range r.members {
		ops := r.readyOps(m)
		if ops == nil {
			continue
		}
		now := ops.Advance(d)
		r.emit(phase, "advance", m.ID, "", r.d.dur("now=", now.Duration()).String())
	}
}

func (r *runner) metrics(phase int) {
	for _, m := range r.members {
		ops := r.readyOps(m)
		if ops == nil {
			continue
		}
		snap := ops.SampleMetrics()
		r.emit(phase, "metrics", m.ID, "", r.d.float3("load=", snap.ClusterLoad).int(" polls=", snap.Polls).
			int(" hosts=", len(snap.Nodes)).int(" alerts=", len(snap.ActiveAlerts)).String())
	}
}

func (r *runner) rollout(phase int, p *Phase) error {
	if p.Package != "" {
		xnit, err := r.fl.XNITRepo()
		if err != nil {
			return err
		}
		pkg := rpm.NewPackage(p.Package, p.Version, rpm.ArchX86_64).Build()
		// Idempotent for repeated runs on one fleet: the shared repository
		// survives across scenarios, so only publish a version once.
		if cur := xnit.Newest(p.Package); cur == nil || cur.EVR.Compare(pkg.EVR) != 0 {
			if err := xnit.Publish(pkg); err != nil {
				return fmt.Errorf("scenario: publishing rollout update: %w", err)
			}
		}
		r.emit(phase, "rollout.publish", "", "", pkg.NEVRA())
	}
	policy := depsolve.PolicyNotify
	switch p.Policy {
	case "auto-apply":
		policy = depsolve.PolicyAutoApply
	case "security-only":
		policy = depsolve.PolicySecurityOnly
	}
	members := r.members
	width := p.Wave
	if width <= 0 {
		width = len(members)
	}
	for start := 0; start < len(members); start += width {
		end := start + width
		if end > len(members) {
			end = len(members)
		}
		wave := start / width
		for _, m := range members[start:end] {
			ops := r.readyOps(m)
			if ops == nil {
				continue
			}
			if err := m.AdoptXNIT(); err != nil {
				return err
			}
			notes := ops.CheckUpdates(policy, updateEpoch)
			pending, applied := 0, 0
			for _, n := range notes {
				pending += len(n.Pending)
				applied += len(n.Applied)
			}
			r.applied += applied
			r.emit(phase, "rollout", m.ID, "",
				fmt.Sprintf("wave=%d policy=%s pending=%d applied=%d", wave, p.Policy, pending, applied))
		}
	}
	return nil
}

func (r *runner) assert(phase int, p *Phase) {
	st := r.fl.Status()
	for _, inv := range p.Invariants {
		ok := true
		detail := ""
		switch inv.Name {
		case InvAllReady:
			ok = st.Ready == st.Members
			detail = fmt.Sprintf("ready=%d members=%d", st.Ready, st.Members)
		case InvMinReady:
			ok = st.Ready >= inv.Limit
			detail = fmt.Sprintf("ready=%d limit=%d", st.Ready, inv.Limit)
		case InvMaxQuarantined:
			// Build-time quarantines plus nodes this run failed day-2 —
			// the bound covers all damage the scenario inflicted.
			total := st.Quarantined + r.failed
			ok = total <= inv.Limit
			detail = fmt.Sprintf("quarantined=%d (build=%d day2=%d) limit=%d",
				total, st.Quarantined, r.failed, inv.Limit)
		case InvJobsConserved:
			lost := 0
			for _, m := range r.members {
				ops := r.readyOps(m)
				if ops == nil {
					continue
				}
				if got, want := ops.JobCount(), r.baseline[m.Index]+r.submitted[m.Index]; got != want {
					lost++
					r.emit(phase, "assert.mismatch", m.ID, "",
						fmt.Sprintf("%s: jobs=%d submitted=%d", inv.Name, got, want))
				}
			}
			ok = lost == 0
			detail = fmt.Sprintf("members-with-loss=%d", lost)
		}
		if ok {
			r.emit(phase, "assert.ok", "", "", inv.Name+": "+detail)
		} else {
			violation := inv.Name + ": " + detail
			r.res.Violations = append(r.res.Violations, violation)
			r.emit(phase, "assert.violation", "", "", violation)
		}
	}
}

func (r *runner) finish() {
	st := r.fl.Status()
	stats := Stats{
		Members:          st.Members,
		Ready:            st.Ready,
		Failed:           st.Failed,
		Cancelled:        st.Cancelled,
		QuarantinedNodes: st.Quarantined + r.failed,
		JobsCancelled:    r.cancelled,
		UpdatesApplied:   r.applied,
	}
	for _, m := range r.members {
		stats.JobsSubmitted += r.submitted[m.Index]
		if ops := r.readyOps(m); ops != nil {
			if now := ops.Now().Duration(); now > stats.SimulatedEnd {
				stats.SimulatedEnd = now
			}
		}
	}
	r.res.Stats = stats
	r.res.Passed = len(r.res.Violations) == 0
	r.emit(-1, "scenario.end", "", "",
		fmt.Sprintf("ready=%d failed=%d cancelled=%d quarantined=%d jobs=%d applied=%d violations=%d",
			st.Ready, st.Failed, st.Cancelled, stats.QuarantinedNodes,
			stats.JobsSubmitted, r.applied, len(r.res.Violations)))
}
