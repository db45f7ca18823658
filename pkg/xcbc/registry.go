package xcbc

import (
	"sort"

	"xcbc/internal/cluster"
	"xcbc/internal/core"
	"xcbc/internal/repo"
	"xcbc/internal/rocks"
)

// XCBCVersion is the release of the reproduced stack (XCBC 0.9 on Rocks
// 6.1.1 / CentOS 6.5, as the paper describes).
const XCBCVersion = core.XCBCVersion

// Clusters lists the cluster names WithCluster accepts, sorted. The
// catalog itself lives in internal/cluster so the fleet manager shares it.
func Clusters() []string { return cluster.CatalogNames() }

// NewCluster builds a fresh, powered-off instance of a cataloged machine.
func NewCluster(name string) (*cluster.Cluster, error) {
	return cluster.FromCatalog(name)
}

// Profiles lists the curated XNIT package profiles, sorted.
func Profiles() []string {
	out := core.Profiles()
	sort.Strings(out)
	return out
}

// BuildDistribution assembles the complete XCBC install tree (base roll,
// XSEDE roll for the scheduler, plus optional rolls) without deploying it —
// the artifact a site would burn to install media.
func BuildDistribution(scheduler string, optionalRolls ...string) (*rocks.Distribution, error) {
	return core.BuildDistribution(scheduler, optionalRolls...)
}

// NewXNITRepository creates the XSEDE Yum repository pre-populated with the
// full XNIT catalog, ready to serve or mirror.
func NewXNITRepository() (*repo.Repository, error) { return core.NewXNITRepository() }

// XNITRepoID is the repository ID of the XSEDE Yum repository.
const XNITRepoID = core.XNITRepoID

// XNITPriority is the yum-plugin-priorities priority the XNIT README
// recommends, below vendor/base repositories.
const XNITPriority = core.XNITPriority
