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
	Results []Result
	// Failed holds members quarantined after exhausting retries.
	Failed []NodeFailure
	// Duration is the simulated time the wave consumed: the max over member
	// install times (including their failed attempts and backoff).
	Duration time.Duration
}

// failedAttemptCost is the simulated time one failed attempt burns before
// the node gives up: the PXE boot that went nowhere.
const failedAttemptCost = StagePXEBoot

// InstallWave kickstarts computes lo through hi-1 as one overlapping wave.
// Per member it attempts the install up to 1+Retries times, backing off
// between attempts; members that exhaust retries land in Failed rather than
// failing the wave. The engine advances once, by the slowest member's total
// time, and successful installs commit after that advance — so a wave is
// atomic with respect to the simulation clock and to cancellation (callers
// cancel between waves, never inside one).
func (ins *Installer) InstallWave(eng *sim.Engine, lo, hi int, opts WaveOptions) WaveResult {
	o := opts.withDefaults()
	var wr WaveResult
	quarantine := func(e logEntry, spent time.Duration) {
		ins.record(e)
		wr.Failed = append(wr.Failed, NodeFailure{Node: ins.Cluster.Computes[e.node].Name, Attempts: e.attempts, Err: e.err})
		wr.Duration = max(wr.Duration, spent)
	}
	for i := lo; i < hi; i++ {
		var spent time.Duration // failed attempts + backoff, simulated
		var lastErr error
		attempts := 0
		for attempt := 1; attempt <= 1+o.Retries; attempt++ {
			attempts = attempt
			if attempt > 1 {
				spent += backoffFor(o.Backoff, attempt)
			}
			lastErr = ins.attempt(i, attempt)
			if lastErr == nil {
				break
			}
			spent += failedAttemptCost
		}
		if lastErr != nil {
			quarantine(logEntry{kind: logGaveUp, node: i, attempts: attempts, err: lastErr}, spent)
			continue
		}
		r, err := ins.kickstart(i)
		if err != nil {
			// Structural refusal (diskless, unregistered): quarantine, the
			// wave and build continue without the node. Time already burned
			// on failed attempts still counts toward the wave.
			quarantine(logEntry{kind: logRefused, node: i, attempts: attempts, err: err}, spent)
			continue
		}
		r.attempts, r.Duration = attempts, spent+r.Duration
		if wr.Results == nil {
			wr.Results = make([]Result, 0, hi-i)
		}
		wr.Results = append(wr.Results, r)
		wr.Duration = max(wr.Duration, r.Duration)
	}
	eng.RunUntil(eng.Now() + sim.Time(wr.Duration))
	committed := wr.Results[:0]
	for _, r := range wr.Results {
		if err := ins.commit(&r); err != nil {
			wr.Failed = append(wr.Failed, NodeFailure{Node: r.Node, Attempts: r.attempts, Err: err})
			continue
		}
		committed = append(committed, r)
	}
	wr.Results = committed
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
	return min(d, MaxRetryBackoff)
}

// attempt runs the fault-injection hook for compute i's nth install
// attempt.
func (ins *Installer) attempt(i, n int) error {
	if ins.Hook == nil {
		return nil
	}
	name := ins.Cluster.Computes[i].Name
	if err := ins.Hook(name, n); err != nil {
		return fmt.Errorf("provision: %s install attempt %d failed: %w", name, n, err)
	}
	return nil
}

// InstallComputeWaves installs every compute node in waves of opts.Width
// consecutive nodes, checking ctx between waves only (a wave, like a
// kickstart on real hardware, runs to completion once started) and
// invoking onWave — when non-nil — after each wave commits. It is the
// single home of the wave-build invariants: between-wave cancellation, and
// "all computes quarantined" failing the build. On cancellation the
// returned slice covers the waves that committed; nodes of later waves are
// untouched.
func (ins *Installer) InstallComputeWaves(ctx context.Context, eng *sim.Engine,
	opts WaveOptions, onWave func(index int, wr *WaveResult)) ([]WaveResult, error) {
	n, width := len(ins.Cluster.Computes), max(opts.Width, 1)
	waves := make([]WaveResult, 0, (n+width-1)/width)
	quarantined := 0
	for lo := 0; lo < n; lo += width {
		if err := ctx.Err(); err != nil {
			return waves, fmt.Errorf("provision: build cancelled before wave starting at %s: %w", ins.Cluster.Computes[lo].Name, err)
		}
		waves = append(waves, ins.InstallWave(eng, lo, min(lo+width, n), opts))
		wr := &waves[len(waves)-1]
		quarantined += len(wr.Failed)
		if onWave != nil {
			onWave(len(waves)-1, wr)
		}
	}
	if n > 0 && quarantined == n {
		return waves, fmt.Errorf("provision: all %d compute nodes quarantined; build unusable", n)
	}
	return waves, nil
}
