package sched

import "xcbc/internal/sim"

// TorqueMaui is the XCBC default: Torque resource manager with the Maui
// scheduler — FIFO order with EASY backfill.
type TorqueMaui struct{}

// Name implements Policy.
func (TorqueMaui) Name() string { return "torque" }

// Less implements Policy: strict submission order.
func (TorqueMaui) Less(a, b *Job, _ sim.Time, _ map[string]float64) bool {
	return a.SubmitTime < b.SubmitTime || (a.SubmitTime == b.SubmitTime && a.ID < b.ID)
}

// Backfill implements Policy: Maui backfills.
func (TorqueMaui) Backfill() bool { return true }

// Slurm is a SLURM-like multifactor scheduler: priority is a weighted sum of
// queue age and job size (small jobs slightly favored, as in the
// "job_size" factor with SMALL_RELATIVE_TO_TIME), with backfill.
type Slurm struct {
	// AgeWeight scales queue-age seconds into priority; defaults to 1.
	AgeWeight float64
	// SizeWeight scales the inverse core count; defaults to 1000.
	SizeWeight float64
}

// Name implements Policy.
func (Slurm) Name() string { return "slurm" }

// priority computes the multifactor priority of a job at time now.
func (s Slurm) priority(j *Job, now sim.Time) float64 {
	aw := s.AgeWeight
	if aw == 0 {
		aw = 1
	}
	sw := s.SizeWeight
	if sw == 0 {
		sw = 1000
	}
	age := (now - j.SubmitTime).Duration().Seconds()
	return aw*age + sw/float64(j.Cores)
}

// Less implements Policy: higher priority first, ID as tiebreak.
func (s Slurm) Less(a, b *Job, now sim.Time, _ map[string]float64) bool {
	pa, pb := s.priority(a, now), s.priority(b, now)
	if pa != pb {
		return pa > pb
	}
	return a.ID < b.ID
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

// Less implements Policy: least-usage user first, then FIFO.
func (SGE) Less(a, b *Job, _ sim.Time, usage map[string]float64) bool {
	ua, ub := usage[a.User], usage[b.User]
	if ua != ub {
		return ua < ub
	}
	if a.SubmitTime != b.SubmitTime {
		return a.SubmitTime < b.SubmitTime
	}
	return a.ID < b.ID
}

// Backfill implements Policy.
func (SGE) Backfill() bool { return false }

// PlainFIFO is Torque without Maui: strict submission order, no backfill.
// It exists for the ablation that quantifies what Maui adds to the XCBC
// default stack.
type PlainFIFO struct{}

// Name implements Policy.
func (PlainFIFO) Name() string { return "torque-nomau" }

// Less implements Policy: strict submission order.
func (PlainFIFO) Less(a, b *Job, now sim.Time, usage map[string]float64) bool {
	return TorqueMaui{}.Less(a, b, now, usage)
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
