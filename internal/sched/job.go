// Package sched implements the job-management layer of an XSEDE-compatible
// cluster: a batch queueing system with three scheduler personalities —
// Torque+Maui (FIFO with backfill), a SLURM-like multifactor scheduler, and
// an SGE-like fair-share scheduler. Table 1 lists these as the XCBC "choose
// one" options; the paper's portability claim is that user commands behave
// identically regardless of which is installed, which internal/core's
// command layer demonstrates.
package sched

import (
	"fmt"
	"time"

	"xcbc/internal/sim"
)

// JobState is a job's lifecycle state.
type JobState int

// Job states, following PBS/SLURM conventions.
const (
	StateQueued JobState = iota
	StateRunning
	StateCompleted
	StateCancelled
	StateTimeout // killed at walltime limit
)

func (s JobState) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateCompleted:
		return "completed"
	case StateCancelled:
		return "cancelled"
	case StateTimeout:
		return "timeout"
	}
	return "?"
}

// Job is one batch job.
type Job struct {
	ID       int
	Name     string
	User     string
	Cores    int           // total cores requested
	Walltime time.Duration // requested limit
	Runtime  time.Duration // actual execution time (simulation input)

	State      JobState
	SubmitTime sim.Time
	StartTime  sim.Time
	EndTime    sim.Time
	Alloc      []Share // the cores held per node, in node name order; nil until placed

	// Script is a label for what the job runs; the command layer fills it
	// from qsub/sbatch arguments.
	Script string

	finish   sim.Handle
	requeued bool    // set when a node failure bounced the job back to the queue
	coreSecs float64 // charged once, when the job finishes; 0 if it never ran
}

// Share is one node's part of a job's allocation: the node's position in
// the cluster's Computes and the cores the job holds there.
type Share struct {
	Node, Cores int
}

// Requeued reports whether a node failure has ever requeued this job.
func (j *Job) Requeued() bool { return j.requeued }

// WaitTime returns how long the job sat in the queue (valid once started).
func (j *Job) WaitTime() time.Duration {
	return (j.StartTime - j.SubmitTime).Duration()
}

// Turnaround returns submission-to-completion time (valid once finished).
func (j *Job) Turnaround() time.Duration {
	return (j.EndTime - j.SubmitTime).Duration()
}

func (j *Job) String() string {
	return fmt.Sprintf("job %d (%s, %s, %d cores) %s", j.ID, j.Name, j.User, j.Cores, j.State)
}

// terminal reports whether the job has finished one way or another.
func (j *Job) terminal() bool {
	return j.State == StateCompleted || j.State == StateCancelled || j.State == StateTimeout
}

// Policy orders the queue and names the scheduler personality.
type Policy interface {
	// Name is the scheduler's name as a user would know it ("torque",
	// "slurm", "sge").
	Name() string
	// Compare orders job a against job b in a scheduling pass: negative
	// if a goes first, positive if b does, zero to keep their queue order.
	// now is the current time (for age-based priority); usage maps user ->
	// consumed core-seconds (for fair share).
	Compare(a, b *Job, now sim.Time, usage map[string]float64) int
	// Backfill reports whether lower-priority jobs may run ahead when they
	// fit into idle resources without delaying the head of the queue.
	Backfill() bool
}
