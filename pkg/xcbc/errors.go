package xcbc

import (
	"errors"

	"xcbc/internal/core"
	"xcbc/internal/depsolve"
	"xcbc/internal/provision"
	"xcbc/internal/rocks"
	"xcbc/internal/sched"
)

// Sentinel errors wrapped by SDK operations; test with errors.Is.
var (
	// ErrUnknownCluster reports a cluster name absent from Clusters().
	ErrUnknownCluster = errors.New("xcbc: unknown cluster")
	// ErrUnknownScheduler reports a scheduler other than torque, slurm or sge.
	ErrUnknownScheduler = errors.New("xcbc: unknown scheduler")
	// ErrUnknownRoll reports a name that is not one of Table 1's optional rolls.
	ErrUnknownRoll = errors.New("xcbc: unknown optional roll")
	// ErrUnknownProfile reports an XNIT profile name absent from Profiles().
	ErrUnknownProfile = errors.New("xcbc: unknown package profile")
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
	ErrDiskless = errors.New("xcbc: Rocks cannot provision diskless nodes")
	// ErrDepCycle reports a cycle in the kickstart include-graph.
	ErrDepCycle = errors.New("xcbc: kickstart graph cycle")
	// ErrUnresolvable reports package requirements that no enabled
	// repository satisfies.
	ErrUnresolvable = errors.New("xcbc: unresolvable dependencies")
	// ErrNoRepos reports an install attempted before any repository is
	// configured (run the XNIT builder or add a repository first).
	ErrNoRepos = errors.New("xcbc: no enabled repositories")
	// ErrJobsRunning reports a scheduler change attempted while jobs are
	// still running; drain the queue first.
	ErrJobsRunning = errors.New("xcbc: jobs still running")
	// ErrNilDeployment reports NewXNIT called with a nil existing
	// deployment.
	ErrNilDeployment = errors.New("xcbc: nil deployment")
	// ErrNotReady reports a day-2 operation (Handle.Cluster) on a
	// deployment that has not reached StateReady.
	ErrNotReady = errors.New("xcbc: deployment not ready")
	// ErrNoScheduler reports a batch operation on a cluster deployed
	// without a batch system (the vendor path with no scheduler).
	ErrNoScheduler = errors.New("xcbc: no batch system installed")
	// ErrUnknownJob reports a job ID that is neither queued nor running.
	ErrUnknownJob = errors.New("xcbc: unknown job")
	// ErrBadJob reports a job submission that can never run (no cores, more
	// cores than the cluster has, or a walltime over a year).
	ErrBadJob = errors.New("xcbc: bad job request")
)

// translate maps internal-layer failures onto the SDK's sentinel errors so
// callers never need to import internal packages to branch on causes. The
// original error is preserved in the chain.
func translate(err error) error {
	if err == nil {
		return nil
	}
	switch {
	case errors.Is(err, provision.ErrDiskless):
		return errors.Join(ErrDiskless, err)
	case errors.Is(err, rocks.ErrCycle):
		return errors.Join(ErrDepCycle, err)
	case errors.Is(err, core.ErrNoScheduler):
		return errors.Join(ErrNoScheduler, err)
	case errors.Is(err, sched.ErrUnknownJob):
		return errors.Join(ErrUnknownJob, err)
	case errors.Is(err, sched.ErrBadJob):
		return errors.Join(ErrBadJob, err)
	}
	var unres *depsolve.UnresolvableError
	if errors.As(err, &unres) {
		return errors.Join(ErrUnresolvable, err)
	}
	return err
}
