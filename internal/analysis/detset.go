package analysis

import "strings"

// The deterministic package set is data, not code: every analyzer and both
// detlint drivers consult these tables, and detset_test.go fails if a
// package that imports internal/sim or internal/scenario is missing from
// them. To add a package to the deterministic set, add its import path to
// Deterministic; to keep a sim-importing package out (an operator-facing
// surface where wall clock is UX, not trace input), add it to Exempt with
// a written reason.

// Deterministic lists the packages whose behavior must be a pure function
// of their inputs and seeds: everything on the simulated trace path, the
// state it is computed from, and the WAL whose replay must reproduce it.
// detclock and detrand treat wall clocks and ambient randomness here as
// build errors; maporder additionally demands stable iteration order.
var Deterministic = []string{
	"xcbc/internal/sim",
	"xcbc/internal/scenario",
	"xcbc/internal/fleet",
	"xcbc/internal/campaign",
	"xcbc/internal/cluster",
	"xcbc/internal/core",
	"xcbc/internal/wal",
	"xcbc/internal/sched",
	"xcbc/internal/provision",
	"xcbc/internal/orchestrator",
	"xcbc/internal/monitor",
	"xcbc/internal/power",
	"xcbc/internal/workload",
	"xcbc/internal/gridftp",
	"xcbc/internal/storage",
	"xcbc/internal/repo",
	"xcbc/internal/hpl",
	"xcbc/internal/depsolve",
	"xcbc/internal/rpm",
	"xcbc/internal/modules",
	"xcbc/internal/rocks",
	"xcbc/internal/mpi",
	"xcbc/internal/xsede",
	"xcbc/internal/verify",
	"xcbc/internal/report",
	"xcbc/pkg/xcbc",
}

// Exempt names packages that import internal/sim or internal/scenario but
// are deliberately outside the deterministic set, with the justification.
// Exemption is narrow: maporder, errdrop, and lockcopy still apply to
// everything detlint analyzes; only the clock/randomness contract is
// waived.
//
//detlint:reached support: TestDeterministicSetClosure holds every sim-importing package to Deterministic or a reason written here
var Exempt = map[string]string{
	"xcbc/cmd/clusterctl":             "operator CLI; wall-clock timestamps and ticker output are UX, never trace input",
	"xcbc/examples/campus-bridging":   "runnable documentation; demonstrates the SDK against real time",
	"xcbc/examples/littlefe-training": "runnable documentation; demonstrates the SDK against real time",
	"xcbc/examples/research-pipeline": "runnable documentation; demonstrates the SDK against real time",
}

// OrderSensitiveExtras lists packages outside the deterministic set whose
// outputs must still iterate stably: the REST control plane builds list
// responses and journals typed records, so unordered map ranges there leak
// straight into API bodies and the WAL.
var OrderSensitiveExtras = []string{
	"xcbc/pkg/xcbc/api",
}

// CanonicalImportPath strips the test-variant decoration the go command
// appends to package paths during `go vet` ("p [p.test]" → "p").
func CanonicalImportPath(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		return path[:i]
	}
	return path
}

// IsDeterministic reports whether the package at path is in the
// deterministic set.
func IsDeterministic(path string) bool {
	path = CanonicalImportPath(path)
	for _, p := range Deterministic {
		if p == path {
			return true
		}
	}
	return false
}

// IsOrderSensitive reports whether maporder applies to the package.
func IsOrderSensitive(path string) bool {
	path = CanonicalImportPath(path)
	if IsDeterministic(path) {
		return true
	}
	for _, p := range OrderSensitiveExtras {
		if p == path {
			return true
		}
	}
	return false
}
