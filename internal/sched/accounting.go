package sched

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"

	"xcbc/internal/sim"
)

// This file implements the accounting side of the batch system: the
// per-job records a Torque accounting log would carry, per-user summaries,
// and cluster utilization — what administrators at the paper's deployment
// sites use to justify the machine.

// AccountingRecord is one finished job's accounting line.
type AccountingRecord struct {
	JobID    int
	Name     string
	User     string
	Cores    int
	State    JobState
	Queued   sim.Time
	Started  sim.Time
	CoreSecs float64
}

// Records returns accounting records for all finished jobs in completion
// order.
func (m *Manager) Records() []AccountingRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]AccountingRecord, 0, len(m.done))
	for _, j := range m.done {
		out = append(out, AccountingRecord{
			JobID: j.ID, Name: j.Name, User: j.User, Cores: j.Cores,
			State: j.State, Queued: j.SubmitTime, Started: j.StartTime,
			CoreSecs: j.coreSecs,
		})
	}
	return out
}

// UserSummary aggregates one user's consumption.
type UserSummary struct {
	User     string
	Jobs     int
	CoreSecs float64
	MeanWait time.Duration
}

// UserSummaries aggregates accounting by user, sorted by core-seconds
// descending.
func (m *Manager) UserSummaries() []UserSummary {
	m.mu.Lock()
	defer m.mu.Unlock()
	agg := make(map[string]*UserSummary)
	for _, j := range m.done {
		s, ok := agg[j.User]
		if !ok {
			s = &UserSummary{User: j.User}
			agg[j.User] = s
		}
		s.Jobs++
		s.CoreSecs += j.coreSecs
		if j.Alloc != nil {
			s.MeanWait += j.WaitTime() // summed here, divided below
		}
	}
	out := make([]UserSummary, 0, len(agg))
	for _, s := range agg {
		s.MeanWait /= time.Duration(s.Jobs)
		out = append(out, *s)
	}
	slices.SortFunc(out, func(a, b UserSummary) int {
		return cmp.Or(cmp.Compare(b.CoreSecs, a.CoreSecs), strings.Compare(a.User, b.User))
	})
	return out
}

// Utilization returns delivered core-seconds divided by available
// core-seconds between simulation start and now, over compute capacity.
// Jobs still running contribute their elapsed time so far.
func (m *Manager) Utilization() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.Engine.Now()
	available := now.Seconds() * float64(m.capacity)
	if available == 0 {
		return 0
	}
	delivered := 0.0
	for _, j := range m.done {
		delivered += j.coreSecs
	}
	// Sum running jobs in ID order: float addition is not associative, so
	// summing in map order would make Utilization depend on iteration order.
	for _, id := range slices.Sorted(maps.Keys(m.running)) {
		j := m.running[id]
		delivered += (now - j.StartTime).Duration().Seconds() * float64(j.Cores)
	}
	return delivered / available
}

// AccountingReport renders the accounting log plus summaries. It composes
// the locking accessors rather than holding m.mu itself, so the sections
// are each internally consistent snapshots.
func (m *Manager) AccountingReport() string {
	var b strings.Builder
	fmt.Fprintf(&b, "job accounting (%s scheduler), utilization %.1f%%\n",
		m.PolicyName(), 100*m.Utilization())
	fmt.Fprintf(&b, "%-5s %-14s %-10s %-6s %-10s %-10s %-12s\n",
		"ID", "NAME", "USER", "CORES", "STATE", "WAIT", "CORE-SECS")
	for _, r := range m.Records() {
		wait := (r.Started - r.Queued).Duration()
		if r.Started == 0 && r.CoreSecs == 0 {
			wait = 0
		}
		fmt.Fprintf(&b, "%-5d %-14s %-10s %-6d %-10s %-10v %-12.0f\n",
			r.JobID, r.Name, r.User, r.Cores, r.State, wait, r.CoreSecs)
	}
	b.WriteString("per-user summary:\n")
	for _, s := range m.UserSummaries() {
		fmt.Fprintf(&b, "  %-10s %3d jobs  %10.0f core-secs  mean wait %v\n",
			s.User, s.Jobs, s.CoreSecs, s.MeanWait)
	}
	return b.String()
}
