package cluster

import (
	"fmt"
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

// Node is a single machine: hardware description plus mutable system state
// (power, installed packages, running services, attributes).
type Node struct {
	Name    string
	Role    Role
	CPU     CPUModel
	Sockets int // number of CPU packages
	RAMGB   int
	Disks   []Disk
	NICs    []NIC
	Accels  []Accelerator

	mu       sync.Mutex
	power    PowerState
	packages *rpm.DB // nil while bare metal and unread; see Packages
	services map[string]bool
	attrs    map[string]string
	os       string  // installed operating system, "" if bare metal
	energyWh float64 // accumulated energy, maintained by internal/power

	// servicesShared/attrsShared mark the corresponding map as an alias of
	// a post-install state shared by every node of the same appliance (see
	// AdoptSystemState). A shared map is read-only; the first mutation
	// copies it into a private map. Maps are also nil until first written —
	// nil-map reads are free.
	servicesShared bool
	attrsShared    bool
}

// NewNode creates a powered-off, bare-metal node.
func NewNode(name string, role Role, cpu CPUModel, sockets, ramGB int) *Node {
	if sockets < 1 {
		sockets = 1
	}
	return &Node{Name: name, Role: role, CPU: cpu, Sockets: sockets, RAMGB: ramGB}
}

// cloneHardware copies n's hardware description into dst, which comes out
// powered off and bare metal whatever state n is in. The component lists
// are immutable once attached, so dst shares them at full capacity: an
// Add* on either side reallocates instead of writing through.
func (n *Node) cloneHardware(dst *Node) {
	dst.Name, dst.Role, dst.CPU, dst.Sockets, dst.RAMGB = n.Name, n.Role, n.CPU, n.Sockets, n.RAMGB
	dst.Disks = n.Disks[:len(n.Disks):len(n.Disks)]
	dst.NICs = n.NICs[:len(n.NICs):len(n.NICs)]
	dst.Accels = n.Accels[:len(n.Accels):len(n.Accels)]
}

// mutableServices returns the services map ready for writing: detached from
// any shared state and created if nil. Callers must hold n.mu.
func (n *Node) mutableServices() map[string]bool {
	if n.servicesShared {
		n.servicesShared = false
		cp := make(map[string]bool, len(n.services))
		for k, v := range n.services {
			cp[k] = v
		}
		n.services = cp
	} else if n.services == nil {
		n.services = make(map[string]bool)
	}
	return n.services
}

// mutableAttrs is mutableServices for the attribute map.
func (n *Node) mutableAttrs() map[string]string {
	if n.attrsShared {
		n.attrsShared = false
		cp := make(map[string]string, len(n.attrs))
		for k, v := range n.attrs {
			cp[k] = v
		}
		n.attrs = cp
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
		if services != nil {
			n.services = services
			n.servicesShared = true
		}
	} else if len(services) > 0 {
		dst := n.mutableServices()
		for s, v := range services {
			if v {
				dst[s] = true
			}
		}
	}
	if len(n.attrs) == 0 {
		if attrs != nil {
			n.attrs = attrs
			n.attrsShared = true
		}
	} else if len(attrs) > 0 {
		dst := n.mutableAttrs()
		for k, v := range attrs {
			dst[k] = v
		}
	}
}

// AddDisk attaches a disk and returns the node for chaining.
func (n *Node) AddDisk(d Disk) *Node {
	n.Disks = append(n.Disks, d)
	return n
}

// AddNIC attaches a network interface and returns the node for chaining.
func (n *Node) AddNIC(nic NIC) *Node {
	n.NICs = append(n.NICs, nic)
	return n
}

// AddAccelerator attaches an accelerator and returns the node for chaining.
func (n *Node) AddAccelerator(a Accelerator) *Node {
	n.Accels = append(n.Accels, a)
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

// Packages returns the node's installed-package database. A bare-metal
// node gets its (empty) database the first time someone asks, so creating
// a node and wiping it for a kickstart cost one database, not two.
func (n *Node) Packages() *rpm.DB {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.packages == nil {
		n.packages = rpm.NewDB()
	}
	return n.packages
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
