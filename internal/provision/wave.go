package provision

import (
	"context"
	"fmt"
	"time"

	"xcbc/internal/sim"
)

// Wave-parallel provisioning. A Rocks frontend can feed several concurrent
// kickstarts before its HTTP/NFS serving saturates, so the XCBC build
// brings compute nodes up in waves bounded by that width. Within a wave the
// kickstarts overlap: the wave's simulated cost is the *maximum* of its
// members' costs, not the sum. A node whose install attempt fails is
// retried with backoff; a node that exhausts its retries is quarantined so
// the rest of the build proceeds.

// DefaultRetryBackoff is the simulated delay before a node's second install
// attempt; each further attempt doubles it, capped at MaxRetryBackoff.
const DefaultRetryBackoff = 30 * time.Second

// MaxRetryBackoff caps the exponential retry backoff so a large retry
// budget cannot overflow the duration arithmetic or stretch a wave into
// absurd simulated time.
const MaxRetryBackoff = time.Hour

// WaveOptions tune wave-parallel installation.
type WaveOptions struct {
	// Width is the number of kickstarts a wave overlaps; <= 1 degenerates
	// to sequential installs (each wave has one member).
	Width int
	// Retries is how many times a failed node install is re-attempted
	// before quarantine (0 = one attempt, no retry).
	Retries int
	// Backoff is the simulated delay before the first retry, doubling per
	// attempt; <= 0 selects DefaultRetryBackoff.
	Backoff time.Duration
}

func (o WaveOptions) withDefaults() WaveOptions {
	if o.Width < 1 {
		o.Width = 1
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.Backoff <= 0 {
		o.Backoff = DefaultRetryBackoff
	}
	return o
}

// NodeFailure records one quarantined node: the error from its final
// attempt and how many attempts it consumed.
type NodeFailure struct {
	Node     string
	Attempts int
	Err      error
}

// WaveResult summarizes one wave.
type WaveResult struct {
	// Results holds the successfully installed members.
	Results []*Result
	// Failed holds members quarantined after exhausting retries.
	Failed []NodeFailure
	// Duration is the simulated time the wave consumed: the max over member
	// install times (including their failed attempts and backoff).
	Duration time.Duration
}

// failedAttemptCost is the simulated time one failed attempt burns before
// the node gives up: the PXE boot that went nowhere.
const failedAttemptCost = StagePXEBoot

// InstallWave kickstarts the named compute nodes as one overlapping wave.
// Per member it attempts the install up to 1+Retries times, backing off
// between attempts; members that exhaust retries land in Failed rather than
// failing the wave. The engine advances once, by the slowest member's total
// time, and successful installs commit after that advance — so a wave is
// atomic with respect to the simulation clock and to cancellation (callers
// cancel between waves, never inside one).
func (ins *Installer) InstallWave(eng *sim.Engine, names []string, opts WaveOptions) *WaveResult {
	o := opts.withDefaults()
	wr := &WaveResult{}
	started := make([]pendingInstall, 0, len(names))
	for _, name := range names {
		var spent time.Duration // failed attempts + backoff, simulated
		var lastErr error
		attempts := 0
		for attempt := 1; attempt <= 1+o.Retries; attempt++ {
			attempts = attempt
			if attempt > 1 {
				spent += backoffFor(o.Backoff, attempt)
			}
			lastErr = ins.attempt(name, attempt)
			if lastErr == nil {
				break
			}
			spent += failedAttemptCost
		}
		if lastErr != nil {
			ins.log = append(ins.log, logEntry{kind: logGaveUp, node: name, n: attempts, err: lastErr})
			wr.Failed = append(wr.Failed, NodeFailure{Node: name, Attempts: attempts, Err: lastErr})
			if spent > wr.Duration {
				wr.Duration = spent
			}
			continue
		}
		p, err := ins.kickstart(name)
		if err != nil {
			// Structural refusal (diskless, unregistered): quarantine, the
			// wave and build continue without the node. Time already burned
			// on failed attempts still counts toward the wave.
			ins.log = append(ins.log, logEntry{kind: logRefused, node: name, err: err})
			wr.Failed = append(wr.Failed, NodeFailure{Node: name, Attempts: attempts, Err: err})
			if spent > wr.Duration {
				wr.Duration = spent
			}
			continue
		}
		p.attempts, p.took = attempts, spent+p.cost
		started = append(started, p)
		if p.took > wr.Duration {
			wr.Duration = p.took
		}
	}
	eng.RunUntil(eng.Now() + sim.Time(wr.Duration))
	// One slab holds the wave's Results; wr.Results points into it.
	var results []Result
	if len(started) > 0 {
		results = make([]Result, len(started))
		wr.Results = make([]*Result, 0, len(started))
	}
	for i := range started {
		if err := ins.commit(&started[i], &results[i]); err != nil {
			wr.Failed = append(wr.Failed, NodeFailure{Node: started[i].name, Attempts: started[i].attempts, Err: err})
			continue
		}
		wr.Results = append(wr.Results, &results[i])
	}
	for _, f := range wr.Failed {
		ins.Quarantined = append(ins.Quarantined, f.Node)
	}
	return wr
}

// backoffFor returns the simulated delay before the given attempt (>= 2):
// base doubled per prior retry, capped at MaxRetryBackoff (which also
// keeps the doubling overflow-free for any retry budget).
func backoffFor(base time.Duration, attempt int) time.Duration {
	d := base
	for i := 2; i < attempt && d < MaxRetryBackoff; i++ {
		d *= 2
	}
	if d > MaxRetryBackoff {
		d = MaxRetryBackoff
	}
	return d
}

// attempt runs the fault-injection hook for one install attempt.
func (ins *Installer) attempt(name string, n int) error {
	if ins.Hook == nil {
		return nil
	}
	if err := ins.Hook(name, n); err != nil {
		return fmt.Errorf("provision: %s install attempt %d failed: %w", name, n, err)
	}
	return nil
}

// Waves partitions names into consecutive waves of the given width.
func Waves(names []string, width int) [][]string {
	if width < 1 {
		width = 1
	}
	if len(names) == 0 {
		return nil
	}
	out := make([][]string, 0, (len(names)+width-1)/width)
	for start := 0; start < len(names); start += width {
		end := start + width
		if end > len(names) {
			end = len(names)
		}
		out = append(out, names[start:end])
	}
	return out
}

// InstallComputeWaves partitions names into waves of opts.Width and
// installs each, checking ctx between waves only (a wave, like a kickstart
// on real hardware, runs to completion once started) and invoking onWave —
// when non-nil — after each wave commits. It is the single home of the
// wave-build invariants: between-wave cancellation, and "all computes
// quarantined" failing the build. On cancellation the returned slice
// covers the waves that committed; nodes of later waves are untouched.
func (ins *Installer) InstallComputeWaves(ctx context.Context, eng *sim.Engine, names []string,
	opts WaveOptions, onWave func(index int, wr *WaveResult)) ([]*WaveResult, error) {
	parts := Waves(names, opts.Width)
	waves := make([]*WaveResult, 0, len(parts))
	quarantined := 0
	for i, wave := range parts {
		if err := ctx.Err(); err != nil {
			return waves, fmt.Errorf("provision: build cancelled before wave starting at %s: %w", wave[0], err)
		}
		wr := ins.InstallWave(eng, wave, opts)
		waves = append(waves, wr)
		quarantined += len(wr.Failed)
		if onWave != nil {
			onWave(i, wr)
		}
	}
	if len(names) > 0 && quarantined == len(names) {
		return waves, fmt.Errorf("provision: all %d compute nodes quarantined; build unusable", len(names))
	}
	return waves, nil
}
