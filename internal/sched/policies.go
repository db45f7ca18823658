package sched

import (
	"cmp"

	"xcbc/internal/sim"
)

// TorqueMaui is the XCBC default: Torque resource manager with the Maui
// scheduler — FIFO order with EASY backfill.
type TorqueMaui struct{}

// Name implements Policy.
func (TorqueMaui) Name() string { return "torque" }

// Compare implements Policy: strict submission order.
func (TorqueMaui) Compare(a, b *Job, _ sim.Time, _ map[string]float64) int {
	return cmp.Or(cmp.Compare(a.SubmitTime, b.SubmitTime), cmp.Compare(a.ID, b.ID))
}

// Backfill implements Policy: Maui backfills.
func (TorqueMaui) Backfill() bool { return true }

// Slurm is a SLURM-like multifactor scheduler: priority is a weighted sum of
// queue age and job size (small jobs slightly favored, as in the
// "job_size" factor with SMALL_RELATIVE_TO_TIME), with backfill.
type Slurm struct{}

// Slurm's priority weights: queue-age seconds count once, and the inverse
// core count a thousand times.
const (
	slurmAgeWeight  = 1
	slurmSizeWeight = 1000
)

// Name implements Policy.
func (Slurm) Name() string { return "slurm" }

// priority computes the multifactor priority of a job at time now.
func (Slurm) priority(j *Job, now sim.Time) float64 {
	age := (now - j.SubmitTime).Duration().Seconds()
	return slurmAgeWeight*age + slurmSizeWeight/float64(j.Cores)
}

// Compare implements Policy: higher priority first, ID as tiebreak.
func (s Slurm) Compare(a, b *Job, now sim.Time, _ map[string]float64) int {
	return cmp.Or(cmp.Compare(s.priority(b, now), s.priority(a, now)), cmp.Compare(a.ID, b.ID))
}

// Backfill implements Policy.
func (Slurm) Backfill() bool { return true }

// SGE is a Grid Engine-like fair-share scheduler: users with less
// accumulated usage get priority; no backfill (classic share-tree
// configuration). A real share tree decays usage with a half-life; the
// simulation keeps cumulative usage, which preserves the fairness ordering.
type SGE struct{}

// Name implements Policy.
func (SGE) Name() string { return "sge" }

// Compare implements Policy: least-usage user first, then FIFO.
func (SGE) Compare(a, b *Job, now sim.Time, usage map[string]float64) int {
	return cmp.Or(cmp.Compare(usage[a.User], usage[b.User]), TorqueMaui{}.Compare(a, b, now, usage))
}

// Backfill implements Policy.
func (SGE) Backfill() bool { return false }

// PlainFIFO is Torque without Maui: strict submission order, no backfill.
// It exists for the ablation that quantifies what Maui adds to the XCBC
// default stack.
type PlainFIFO struct{}

// Name implements Policy.
func (PlainFIFO) Name() string { return "torque-nomau" }

// Compare implements Policy: strict submission order.
func (PlainFIFO) Compare(a, b *Job, now sim.Time, usage map[string]float64) int {
	return TorqueMaui{}.Compare(a, b, now, usage)
}

// Backfill implements Policy: plain pbs_sched does not backfill.
func (PlainFIFO) Backfill() bool { return false }

// PolicyByName returns the policy for a scheduler package name, matching the
// Table 1 "Torque, SLURM, sge (choose one)" options.
func PolicyByName(name string) (Policy, bool) {
	switch name {
	case "torque", "torque+maui", "maui":
		return TorqueMaui{}, true
	case "torque-nomau":
		return PlainFIFO{}, true
	case "slurm":
		return Slurm{}, true
	case "sge", "gridengine":
		return SGE{}, true
	}
	return nil, false
}
