package cluster

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"

	"xcbc/internal/rpm"
)

// Role is a node's appliance type in Rocks terminology.
type Role string

// Node roles.
const (
	RoleFrontend Role = "frontend"
	RoleCompute  Role = "compute"
)

// PowerState is whether a node is powered.
type PowerState int

// Power states.
const (
	PowerOff PowerState = iota
	PowerOn
)

func (p PowerState) String() string {
	if p == PowerOn {
		return "on"
	}
	return "off"
}

// Disk is local storage attached to a node. Rocks-based provisioning
// requires at least one disk; diskless nodes can only be provisioned by
// vendor tooling (the Limulus case in the paper).
type Disk struct {
	Model      string
	SizeGB     int
	FormFactor string // "2.5in", "mSATA", "3.5in"
}

// NIC is a network interface.
type NIC struct {
	Name    string // eth0, eth1
	Network string // name of the attached network, "" if unwired
}

// Hardware is a node's physical description. A node built by NewNode owns
// its description and adds components to it in place; a clone's nodes
// borrow their template's, and copy it on their first AddDisk, AddNIC or
// AddAccelerator. A cluster gains no components once it is cloned.
type Hardware struct {
	Name    string
	Role    Role
	CPU     *CPUModel // shared by every node built from one model; never written through
	Sockets int       // number of CPU packages
	RAMGB   int
	Disks   []Disk
	NICs    []NIC
	Accels  []Accelerator
}

// Node is a single machine: its hardware description, whose fields it
// promotes, plus mutable system state (power, installed packages, running
// services, attributes).
type Node struct {
	*Hardware

	mu       sync.Mutex
	power    PowerState
	packages *rpm.DB // nil while bare metal and unread; see Packages
	services map[string]bool
	attrs    map[string]string
	os       string  // installed operating system, "" if bare metal
	energyWh float64 // accumulated energy, maintained by internal/power

	// servicesShared and attrsShared mark the map as an alias of a
	// post-install state every node of the appliance shares (see
	// AdoptSystemState; a shared package database is frozen instead). A
	// shared part is read-only; the first mutation copies it. Maps are also
	// nil until first written — nil-map reads are free.
	servicesShared bool
	attrsShared    bool
	ownsHardware   bool // Hardware is this node's alone; see Hardware
}

// NewNode creates a powered-off, bare-metal node.
func NewNode(name string, role Role, cpu *CPUModel, sockets, ramGB int) *Node {
	if sockets < 1 {
		sockets = 1
	}
	return &Node{Hardware: &Hardware{Name: name, Role: role, CPU: cpu, Sockets: sockets, RAMGB: ramGB}, ownsHardware: true}
}

// ownHardware returns n's description ready for an add. A borrowed one is
// copied first, its lists clipped so that the append reallocates instead
// of writing into room the lender could use.
func (n *Node) ownHardware() *Hardware {
	if !n.ownsHardware {
		h := *n.Hardware
		h.Disks, h.NICs, h.Accels = slices.Clip(h.Disks), slices.Clip(h.NICs), slices.Clip(h.Accels)
		n.Hardware, n.ownsHardware = &h, true
	}
	return n.Hardware
}

// mutableServices returns the services map ready for writing: detached from
// any shared state and created if nil. Callers must hold n.mu.
func (n *Node) mutableServices() map[string]bool {
	if n.servicesShared {
		n.services, n.servicesShared = maps.Clone(n.services), false
	} else if n.services == nil {
		n.services = make(map[string]bool)
	}
	return n.services
}

// mutableAttrs is mutableServices for the attribute map.
func (n *Node) mutableAttrs() map[string]string {
	if n.attrsShared {
		n.attrs, n.attrsShared = maps.Clone(n.attrs), false
	} else if n.attrs == nil {
		n.attrs = make(map[string]string)
	}
	return n.attrs
}

// AdoptSystemState applies a post-install system state: services to mark
// running and attributes to set. When the node has no services or attributes
// yet (a kickstart lands on a wiped node), the maps are adopted by
// reference, so every node of an appliance shares one instance until a
// divergent mutation copies it — the adopted maps must never be written by
// the caller afterwards. Non-empty existing state is merged into instead,
// matching what replaying the actions one by one would produce.
func (n *Node) AdoptSystemState(services map[string]bool, attrs map[string]string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.services) == 0 {
		n.services, n.servicesShared = services, services != nil
	} else if len(services) > 0 {
		dst := n.mutableServices()
		for s, v := range services {
			if v {
				dst[s] = true
			}
		}
	}
	if len(n.attrs) == 0 {
		n.attrs, n.attrsShared = attrs, attrs != nil
	} else if len(attrs) > 0 {
		dst := n.mutableAttrs()
		for k, v := range attrs {
			dst[k] = v
		}
	}
}

// AddDisk attaches a disk and returns the node for chaining.
func (n *Node) AddDisk(d Disk) *Node {
	h := n.ownHardware()
	h.Disks = append(h.Disks, d)
	return n
}

// AddNIC attaches a network interface and returns the node for chaining.
func (n *Node) AddNIC(nic NIC) *Node {
	h := n.ownHardware()
	h.NICs = append(h.NICs, nic)
	return n
}

// AddAccelerator attaches an accelerator and returns the node for chaining.
func (n *Node) AddAccelerator(a Accelerator) *Node {
	h := n.ownHardware()
	h.Accels = append(h.Accels, a)
	return n
}

// Cores returns the node's total core count.
func (n *Node) Cores() int { return n.CPU.Cores * n.Sockets }

// GFLOPS returns the node's peak DP GFLOPS including accelerators.
func (n *Node) GFLOPS() float64 {
	g := n.CPU.GFLOPS() * float64(n.Sockets)
	for _, a := range n.Accels {
		g += a.GFLOPSEach
	}
	return g
}

// HasDisk reports whether the node has any local disk (the Rocks
// provisioning prerequisite).
func (n *Node) HasDisk() bool { return len(n.Disks) > 0 }

// Power returns the node's power state.
func (n *Node) Power() PowerState {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.power
}

// SetPower switches the node on or off.
func (n *Node) SetPower(p PowerState) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.power = p
}

// DrawWatts returns the node's current power draw: zero when off, otherwise
// CPU package power plus a fixed board/PSU overhead plus per-disk power.
func (n *Node) DrawWatts() float64 {
	if n.Power() == PowerOff {
		return 0
	}
	const boardOverhead = 15.0
	const perDisk = 2.0
	w := n.CPU.Watts*float64(n.Sockets) + boardOverhead + perDisk*float64(len(n.Disks))
	for _, a := range n.Accels {
		w += a.WattsEach
	}
	return w
}

// AddEnergy accumulates consumed energy in watt-hours.
func (n *Node) AddEnergy(wh float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.energyWh += wh
}

// EnergyWh returns accumulated energy in watt-hours.
func (n *Node) EnergyWh() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.energyWh
}

// Packages returns the node's installed-package database for reading: a
// kickstarted node's may be its appliance's, shared (see AdoptPackages). A
// bare-metal node gets its (empty) database the first time someone asks.
func (n *Node) Packages() *rpm.DB {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.packages == nil {
		n.packages = rpm.NewDB()
	}
	return n.packages
}

// MutablePackages returns the node's installed-package database ready for
// a transaction, forked first if it is shared (frozen).
func (n *Node) MutablePackages() *rpm.DB {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.packages == nil {
		n.packages = rpm.NewDB()
	} else if n.packages.Frozen() {
		n.packages = n.packages.Fork()
	}
	return n.packages
}

// AdoptPackages installs an appliance's post-install database by
// reference: every node of the appliance reads the one db, which must be
// frozen (see rpm.DB.Freeze), until MutablePackages forks it.
func (n *Node) AdoptPackages(db *rpm.DB) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.packages = db
}

// WipePackages resets the node to bare metal (reinstall from scratch).
func (n *Node) WipePackages() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.packages = nil
	n.os = ""
	n.services = nil
	n.servicesShared = false
}

// OS returns the installed operating system name, "" for bare metal.
func (n *Node) OS() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.os
}

// SetOS records the installed operating system.
func (n *Node) SetOS(os string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.os = os
}

// StartService marks a service running.
func (n *Node) StartService(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.services[name] {
		return // already running; don't detach a shared map for a no-op
	}
	n.mutableServices()[name] = true
}

// StopService marks a service stopped.
//
//detlint:reached support: internal/verify's TestStoppedServiceDetected and TestFrontendServiceDetected stop a service to see the live check report it
func (n *Node) StopService(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.services[name] {
		return
	}
	delete(n.mutableServices(), name)
}

// ServiceRunning reports whether a service is running.
func (n *Node) ServiceRunning(name string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.services[name]
}

// Services returns the sorted list of running services.
func (n *Node) Services() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.services))
	for s := range n.services {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// SetAttr sets a host attribute (the "rocks set host attr" analogue).
func (n *Node) SetAttr(key, value string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if v, ok := n.attrs[key]; ok && v == value {
		return // unchanged; don't detach a shared map for a no-op
	}
	n.mutableAttrs()[key] = value
}

// Attr returns a host attribute.
func (n *Node) Attr(key string) (string, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	v, ok := n.attrs[key]
	return v, ok
}

// Attrs returns a copy of all attributes.
//
//detlint:reached support: clone_test.go's stateOf compares a clone's whole attribute map with its template's
func (n *Node) Attrs() map[string]string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[string]string, len(n.attrs))
	for k, v := range n.attrs {
		out[k] = v
	}
	return out
}

func (n *Node) String() string {
	return fmt.Sprintf("%s [%s] %s x%d, %d GB RAM, %d disk(s)",
		n.Name, n.Role, n.CPU.Name, n.Sockets, n.RAMGB, len(n.Disks))
}
