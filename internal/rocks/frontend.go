package rocks

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// HostRecord is one row in the frontend's cluster database: a managed node
// and its provisioning state.
type HostRecord struct {
	Name      string
	Appliance Appliance
	Rack      int
	Rank      int
	IP        string
	Installed bool
}

// FrontendDB is the Rocks frontend's internal database ("rocks list host",
// ...). It is the source of truth for what nodes the
// cluster has and how they are configured.
type FrontendDB struct {
	mu     sync.Mutex
	hosts  map[string]*HostRecord
	distro *Distribution
	nextIP int
}

// NewFrontendDB creates an empty cluster database bound to a distribution.
func NewFrontendDB(d *Distribution) *FrontendDB {
	return &FrontendDB{
		hosts:  make(map[string]*HostRecord),
		distro: d,
		nextIP: 10,
	}
}

// Distribution returns the distribution the database was created with.
// It is set once and the distribution is never written, so reading it
// needs no lock.
func (db *FrontendDB) Distribution() *Distribution { return db.distro }

// AddHost registers a node, assigning it a private IP in insertion order
// (the way Rocks' dhcpd hands out addresses during discovery).
func (db *FrontendDB) AddHost(name string, app Appliance, rack, rank int) (*HostRecord, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.hosts[name]; exists {
		return nil, fmt.Errorf("rocks: host %s already in database", name)
	}
	rec := &HostRecord{
		Name:      name,
		Appliance: app,
		Rack:      rack,
		Rank:      rank,
		IP:        "10.1.1." + strconv.Itoa(db.nextIP),
	}
	db.nextIP++
	db.hosts[name] = rec
	return rec, nil
}

// RemoveHost drops a node from the database.
//
//detlint:reached support: internal/provision's TestCommitFailureCarriesRealAttempts pulls a host record mid-wave to make the live commit fail
func (db *FrontendDB) RemoveHost(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.hosts[name]; !exists {
		return fmt.Errorf("rocks: host %s not in database", name)
	}
	delete(db.hosts, name)
	return nil
}

// Host looks up a node record.
func (db *FrontendDB) Host(name string) (*HostRecord, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	rec, ok := db.hosts[name]
	return rec, ok
}

// Hosts returns all records sorted by rack, then rank, then name — the
// "rocks list host" ordering.
func (db *FrontendDB) Hosts() []*HostRecord {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]*HostRecord, 0, len(db.hosts))
	for _, rec := range db.hosts {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rack != out[j].Rack {
			return out[i].Rack < out[j].Rack
		}
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// HostsByAppliance returns hosts of one appliance type.
func (db *FrontendDB) HostsByAppliance(app Appliance) []*HostRecord {
	var out []*HostRecord
	for _, rec := range db.Hosts() {
		if rec.Appliance == app {
			out = append(out, rec)
		}
	}
	return out
}

// MarkInstalled flips a host's installed flag.
func (db *FrontendDB) MarkInstalled(name string, installed bool) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	rec, ok := db.hosts[name]
	if !ok {
		return fmt.Errorf("rocks: host %s not in database", name)
	}
	rec.Installed = installed
	return nil
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
