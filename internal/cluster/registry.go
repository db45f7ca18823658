package cluster

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
)

// The catalog registry maps the short names used by the SDK, the fleet
// manager, and scenario scripts to the hardware constructors above. It
// lives here (rather than in pkg/xcbc) so internal consumers — the fleet
// provisioner in particular — can stamp out machines without importing the
// public SDK.

// ErrUnknownMachine reports a catalog name absent from CatalogNames.
var ErrUnknownMachine = errors.New("cluster: unknown catalog machine")

// ErrNoComputeTemplate reports a resize request against a machine with no
// compute nodes to clone.
var ErrNoComputeTemplate = errors.New("cluster: no compute nodes to clone")

var catalog = map[string]func() *Cluster{
	"littlefe":          NewLittleFe,
	"littlefe-original": NewLittleFeOriginal,
	"limulus":           NewLimulusHPC200,
	"marshall":          NewMarshall,
	"montana":           NewMontanaState,
	"kansas":            NewKansas,
	"pbarc":             NewPBARC,
	"howard":            NewHoward,
}

// CatalogNames lists the machine names FromCatalog accepts, sorted.
func CatalogNames() []string {
	out := make([]string, 0, len(catalog))
	for name := range catalog {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// FromCatalog builds a fresh, powered-off instance of a cataloged machine.
func FromCatalog(name string) (*Cluster, error) {
	build, ok := catalog[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownMachine, name)
	}
	return build(), nil
}

// computeName is the Rocks name of rack 0's i-th compute node.
func computeName(i int) string { return "compute-0-" + strconv.Itoa(i) }

// ResizeComputes grows or shrinks a cluster's compute set to n nodes,
// cloning the hardware description of the last compute node for growth.
// The frontend is not counted.
func ResizeComputes(hw *Cluster, n int) error {
	if n <= 0 {
		return fmt.Errorf("cluster: compute count must be positive, got %d", n)
	}
	if len(hw.Computes) == 0 {
		return fmt.Errorf("%w: %s", ErrNoComputeTemplate, hw.Name)
	}
	if n < len(hw.Computes) {
		hw.Computes = hw.Computes[:n]
		return nil
	}
	tmpl := hw.Computes[len(hw.Computes)-1]
	nodes, specs := make([]Node, n-len(hw.Computes)), make([]Hardware, n-len(hw.Computes))
	for k := range nodes {
		name := computeName(len(hw.Computes) + 1)
		for j := 0; ; j++ {
			if _, taken := hw.Lookup(name); !taken {
				break
			}
			name = computeName(len(hw.Computes) + 2 + j)
		}
		specs[k] = *tmpl.Hardware
		specs[k].Name, specs[k].Role = name, RoleCompute
		nodes[k].Hardware = &specs[k]
		hw.AddCompute(&nodes[k])
	}
	return nil
}
