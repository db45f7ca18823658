// Package workload generates synthetic batch workloads for the scheduler
// and power-management experiments: deterministic, seeded job streams with
// configurable user mixes, arrival processes, and size/runtime
// distributions — the stand-in for the production traces the paper's
// deployment sites would have.
//
//detlint:reached support: internal/core's TestWeekLongSoak and the root BenchmarkBackfillAblation and BenchmarkSchedulerWorkloadComparison replay these streams against the live batch system
package workload

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"xcbc/internal/sched"
	"xcbc/internal/sim"
)

// Spec parameterizes a workload.
type Spec struct {
	Seed  int64
	Jobs  int
	Users []string
	// MeanInterarrival is the mean of the exponential arrival process.
	MeanInterarrival time.Duration
	// CoresMin/Max bound the (log-uniform) core request.
	CoresMin, CoresMax int
	// RuntimeMin/Max bound the (log-uniform) actual runtime.
	RuntimeMin, RuntimeMax time.Duration
	// WalltimePad multiplies runtime into the requested walltime (users
	// overestimate); 0 means 2.0.
	WalltimePad float64
}

func (s Spec) withDefaults() Spec {
	if s.Jobs == 0 {
		s.Jobs = 50
	}
	if len(s.Users) == 0 {
		s.Users = []string{"alice", "bob", "carol", "dave"}
	}
	if s.MeanInterarrival == 0 {
		s.MeanInterarrival = 5 * time.Minute
	}
	if s.CoresMin == 0 {
		s.CoresMin = 1
	}
	if s.CoresMax == 0 {
		s.CoresMax = 8
	}
	if s.RuntimeMin == 0 {
		s.RuntimeMin = 5 * time.Minute
	}
	if s.RuntimeMax == 0 {
		s.RuntimeMax = 2 * time.Hour
	}
	if s.WalltimePad == 0 {
		s.WalltimePad = 2.0
	}
	return s
}

// TimedJob is a job with its arrival time.
type TimedJob struct {
	At  sim.Time
	Job *sched.Job
}

// Generate produces the deterministic job stream for a spec.
func Generate(spec Spec) []TimedJob {
	s := spec.withDefaults()
	rng := rand.New(rand.NewPCG(uint64(s.Seed), 0))
	out := make([]TimedJob, 0, s.Jobs)
	now := sim.Time(0)
	for i := 0; i < s.Jobs; i++ {
		gap := time.Duration(rng.ExpFloat64() * float64(s.MeanInterarrival))
		now += sim.Time(gap)
		cores := logUniformInt(rng, s.CoresMin, s.CoresMax)
		runtime := logUniformDuration(rng, s.RuntimeMin, s.RuntimeMax)
		wall := time.Duration(float64(runtime) * s.WalltimePad)
		out = append(out, TimedJob{
			At: now,
			Job: &sched.Job{
				Name:     fmt.Sprintf("job-%03d", i),
				User:     s.Users[rng.IntN(len(s.Users))],
				Cores:    cores,
				Runtime:  runtime,
				Walltime: wall,
				Script:   fmt.Sprintf("job-%03d.sh", i),
			},
		})
	}
	return out
}

// logUniformInt samples log-uniformly in [lo, hi].
func logUniformInt(rng *rand.Rand, lo, hi int) int {
	if lo >= hi {
		return lo
	}
	v := math.Exp(rng.Float64()*(math.Log(float64(hi))-math.Log(float64(lo))) + math.Log(float64(lo)))
	n := int(math.Round(v))
	if n < lo {
		n = lo
	}
	if n > hi {
		n = hi
	}
	return n
}

func logUniformDuration(rng *rand.Rand, lo, hi time.Duration) time.Duration {
	if lo >= hi {
		return lo
	}
	v := math.Exp(rng.Float64()*(math.Log(float64(hi))-math.Log(float64(lo))) + math.Log(float64(lo)))
	return time.Duration(v)
}

// Replay schedules the stream's submissions on the engine against a batch
// manager. Jobs whose core requests exceed cluster capacity are clamped to
// capacity (the generator does not know the target machine).
func Replay(eng *sim.Engine, m *sched.Manager, stream []TimedJob) {
	capacity := 0
	for _, n := range m.Cluster.Computes {
		capacity += n.Cores()
	}
	for _, tj := range stream {
		tj := tj
		if tj.Job.Cores > capacity {
			tj.Job.Cores = capacity
		}
		delay := (tj.At - eng.Now()).Duration()
		if delay < 0 {
			delay = 0
		}
		eng.After(delay, "submit-"+tj.Job.Name, func(*sim.Engine) {
			// Submission errors cannot happen after clamping; a panic here
			// would indicate a generator bug worth failing loudly on.
			if _, err := m.Submit(tj.Job); err != nil {
				panic(err)
			}
		})
	}
}

// Stats summarizes a finished workload.
type Stats struct {
	Jobs           int
	Completed      int
	MeanWait       time.Duration
	P95Wait        time.Duration
	MeanTurnaround time.Duration
	Makespan       time.Duration
	Utilization    float64
}

// Collect computes statistics after the engine has drained.
func Collect(m *sched.Manager) Stats {
	hist := m.History()
	st := Stats{Jobs: len(hist), Utilization: m.Utilization()}
	if len(hist) == 0 {
		return st
	}
	var waits []time.Duration
	var waitSum, turnSum time.Duration
	var makespan sim.Time
	for _, j := range hist {
		if j.State == sched.StateCompleted || j.State == sched.StateTimeout {
			st.Completed++
		}
		waits = append(waits, j.WaitTime())
		waitSum += j.WaitTime()
		turnSum += j.Turnaround()
		if j.EndTime > makespan {
			makespan = j.EndTime
		}
	}
	st.MeanWait = waitSum / time.Duration(len(hist))
	st.MeanTurnaround = turnSum / time.Duration(len(hist))
	st.Makespan = makespan.Duration()
	// P95 by insertion sort (small n).
	for i := 1; i < len(waits); i++ {
		for j := i; j > 0 && waits[j] < waits[j-1]; j-- {
			waits[j], waits[j-1] = waits[j-1], waits[j]
		}
	}
	st.P95Wait = waits[(len(waits)*95)/100]
	return st
}
