package xcbc

import (
	"errors"

	"xcbc/internal/cluster"
	"xcbc/internal/core"
	"xcbc/internal/depsolve"
	"xcbc/internal/fleet"
	"xcbc/internal/provision"
	"xcbc/internal/rocks"
	"xcbc/internal/scenario"
	"xcbc/internal/sched"
)

// Sentinel errors wrapped by SDK operations; test with errors.Is. A refusal
// decided below the SDK is that package's own sentinel, re-exported here,
// so the error a caller sees is the one the deciding layer wrote.
var (
	// ErrUnknownCluster reports a cluster name absent from Clusters().
	ErrUnknownCluster = cluster.ErrUnknownMachine
	// ErrUnknownScheduler reports a scheduler other than torque, slurm or sge.
	ErrUnknownScheduler = core.ErrUnknownScheduler
	// ErrUnknownRoll reports a name that is not one of Table 1's optional rolls.
	ErrUnknownRoll = core.ErrUnknownRoll
	// ErrUnknownProfile reports an XNIT profile name absent from Profiles().
	ErrUnknownProfile = core.ErrUnknownProfile
	// ErrUnknownPowerPolicy reports a power policy name that is not one of
	// the PowerPolicy constants.
	ErrUnknownPowerPolicy = errors.New("xcbc: unknown power policy")
	// ErrBadNodeCount reports a non-positive WithNodeCount argument.
	ErrBadNodeCount = errors.New("xcbc: node count must be positive")
	// ErrBadOption reports an out-of-range option argument, such as a
	// negative WithParallelism or WithRetries value.
	ErrBadOption = errors.New("xcbc: bad option value")
	// ErrDiskless reports a Rocks provisioning attempt against a diskless
	// node (the constraint that forces the Limulus onto the XNIT path).
	ErrDiskless = provision.ErrDiskless
	// ErrDepCycle reports a cycle in the kickstart include-graph.
	ErrDepCycle = rocks.ErrCycle
	// ErrUnresolvable reports package requirements that no enabled
	// repository satisfies.
	ErrUnresolvable = depsolve.ErrUnresolvable
	// ErrNoRepos reports an install attempted before any repository is
	// configured (run the XNIT builder or add a repository first).
	ErrNoRepos = core.ErrNoRepos
	// ErrJobsRunning reports a scheduler change attempted while jobs are
	// still running; drain the queue first.
	ErrJobsRunning = core.ErrJobsRunning
	// ErrNilDeployment reports NewXNIT called with a nil existing
	// deployment.
	ErrNilDeployment = errors.New("xcbc: nil deployment")
	// ErrNotReady reports a day-2 operation (Handle.Cluster) on a
	// deployment that has not reached StateReady.
	ErrNotReady = errors.New("xcbc: deployment not ready")
	// ErrNoScheduler reports a batch operation on a cluster deployed
	// without a batch system (the vendor path with no scheduler).
	ErrNoScheduler = core.ErrNoScheduler
	// ErrUnknownJob reports a job ID that is neither queued nor running.
	ErrUnknownJob = sched.ErrUnknownJob
	// ErrBadJob reports a job submission that can never run (no cores, more
	// cores than the cluster has, or a walltime over a year).
	ErrBadJob = sched.ErrBadJob
	// ErrBadFleetSpec reports an invalid fleet specification.
	ErrBadFleetSpec = fleet.ErrBadSpec
	// ErrBadScenario reports scenario JSON that fails decoding or
	// validation (unknown phases, negative counts, unknown fault kinds).
	ErrBadScenario = scenario.ErrBadScenario
	// ErrUnknownScenario reports a built-in scenario name absent from
	// BuiltinScenarios().
	ErrUnknownScenario = errors.New("xcbc: unknown scenario")
)
