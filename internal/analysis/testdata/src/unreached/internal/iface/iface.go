// Package iface declares the interface another package's methods satisfy.
package iface

// Measurer is satisfied by lib.Square.
type Measurer interface {
	Area() float64
}

// Total is reached from cmd/app.
func Total(ms ...Measurer) float64 {
	sum := 0.0
	for _, m := range ms {
		sum += m.Area()
	}
	return sum
}
