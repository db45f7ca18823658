package rocks

import (
	"fmt"
	"math/big"
	"strconv"
	"strings"
	"sync"

	"xcbc/internal/cluster"
)

// HostRecord is one row of the frontend's cluster database as "rocks list
// host" shows it: a managed node and its provisioning state.
type HostRecord struct {
	Name      string
	Appliance Appliance
	Rack      int
	Rank      int
	IP        string
	Installed bool
}

// FrontendDB is the Rocks frontend's internal database ("rocks list host",
// ...): which compute nodes insert-ethers has registered and which of them
// are installed. Host i is the cluster's compute i, in rack 0 at rank i, so
// a host is two bits; its name comes from the node and its address from
// its rank when a row is read.
type FrontendDB struct {
	mu      sync.Mutex
	distro  *Distribution
	cluster *cluster.Cluster
	bits    big.Int // host i: registered at bit 2i, installed at bit 2i+1
}

// NewFrontendDB creates an empty cluster database for c's compute nodes,
// bound to a distribution.
func NewFrontendDB(d *Distribution, c *cluster.Cluster) *FrontendDB {
	return &FrontendDB{distro: d, cluster: c}
}

// Distribution returns the distribution the database was created with.
// It is set once and the distribution is never written, so reading it
// needs no lock.
func (db *FrontendDB) Distribution() *Distribution { return db.distro }

// bit reports host i's bit k (0 registered, 1 installed). db.mu held.
func (db *FrontendDB) bit(i, k int) bool { return db.bits.Bit(2*i+k) == 1 }

// set sets or clears host i's bit k. db.mu held.
func (db *FrontendDB) set(i, k int, on bool) {
	var b uint
	if on {
		b = 1
	}
	db.bits.SetBit(&db.bits, 2*i+k, b)
}

// AddHost registers compute i, the insert-ethers discovery of the node.
func (db *FrontendDB) AddHost(i int) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if i < 0 || i >= len(db.cluster.Computes) {
		return fmt.Errorf("rocks: cluster %s has no compute %d", db.cluster.Name, i)
	}
	if db.bit(i, 0) {
		return fmt.Errorf("rocks: host %s already in database", db.cluster.Computes[i].Name)
	}
	db.set(i, 0, true)
	return nil
}

// RemoveHost drops compute i from the database.
//
//detlint:reached support: internal/provision's TestCommitFailureCarriesRealAttempts pulls a host record mid-wave to make the live commit fail
func (db *FrontendDB) RemoveHost(i int) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.bit(i, 0) {
		return fmt.Errorf("rocks: host %s not in database", db.cluster.Computes[i].Name)
	}
	db.set(i, 0, false)
	db.set(i, 1, false)
	return nil
}

// Registered reports whether compute i is in the database.
func (db *FrontendDB) Registered(i int) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.bit(i, 0)
}

// MarkInstalled flips compute i's installed flag.
func (db *FrontendDB) MarkInstalled(i int, installed bool) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.bit(i, 0) {
		return fmt.Errorf("rocks: host %s not in database", db.cluster.Computes[i].Name)
	}
	db.set(i, 1, installed)
	return nil
}

// hostIP is the private address dhcpd hands the host of the given rank:
// 10.1.1.10 upward, carrying into the third octet past .254, so that every
// rank gets a valid address of its own.
func hostIP(rank int) string {
	k := rank + 9
	return "10.1." + strconv.Itoa(1+k/254) + "." + strconv.Itoa(1+k%254)
}

// Hosts returns the registered hosts' rows in "rocks list host" order:
// by rack, then rank.
func (db *FrontendDB) Hosts() []HostRecord {
	db.mu.Lock()
	defer db.mu.Unlock()
	var out []HostRecord
	for i, n := range db.cluster.Computes {
		if db.bit(i, 0) {
			out = append(out, HostRecord{Name: n.Name, Appliance: ApplianceCompute,
				Rank: i, IP: hostIP(i), Installed: db.bit(i, 1)})
		}
	}
	return out
}

// ListHostReport renders a "rocks list host"-style table.
func (db *FrontendDB) ListHostReport() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-10s %-5s %-5s %-12s %-10s\n", "HOST", "APPLIANCE", "RACK", "RANK", "IP", "INSTALLED")
	for _, rec := range db.Hosts() {
		fmt.Fprintf(&b, "%-16s %-10s %-5d %-5d %-12s %-10v\n",
			rec.Name, rec.Appliance, rec.Rack, rec.Rank, rec.IP, rec.Installed)
	}
	return b.String()
}
