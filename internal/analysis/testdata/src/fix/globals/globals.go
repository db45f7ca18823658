// Package globals exercises noglobals: package-level vars that hold sync
// or sync/atomic state, or are built by sync.OnceValue and friends.
package globals

import (
	"sync"
	"sync/atomic"
)

// guard is a process-global lock: flagged.
var guard sync.Mutex // want "holds sync.Mutex"

// hits is a process-global counter: flagged.
var hits atomic.Int64 // want "holds atomic.Int64"

// table holds its lock inside a struct: flagged.
var table struct { // want "holds sync.Mutex"
	mu sync.Mutex
	m  map[string]int
}

// shards hold locks inside an array: flagged.
var shards [4]struct { // want "holds sync.RWMutex"
	sync.RWMutex
	n int
}

// squares is filled lazily on first call: flagged.
var squares = sync.OnceValue(func() []int { // want "sync.OnceValue"
	return []int{0, 1, 4, 9}
})

// pair is filled lazily with an explicit instantiation: flagged.
var pair = sync.OnceValues[int, error](func() (int, error) { return 1, nil }) // want "sync.OnceValues"

var (
	// names is plain data: clean.
	names = []string{"a", "b"}
	// shared points at a lock but does not hold one: clean.
	shared = &Counter{}
	// fill runs once, but builds nothing global: clean.
	fill = func() { _ = squares() }
)

// Counter holds a lock; values of it outside package scope are fine.
type Counter struct {
	mu sync.Mutex
	n  int
}

// Bump uses a local lock-holding value: clean.
func Bump() int {
	var c Counter
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	return c.n
}

//detlint:global fixture: bounded by the closed key space, reviewed
var reviewed struct {
	sync.Mutex
	m map[int]int
}

var (
	//detlint:global fixture: one-time build of static data
	staticOnce sync.Once
	staticData []int
)

//detlint:global
var bare sync.Pool // want "suppression requires a justification" "holds sync.Pool"

// Use keeps every var referenced.
func Use() {
	guard.Lock()
	guard.Unlock()
	hits.Add(1)
	table.mu.Lock()
	table.m = nil
	table.mu.Unlock()
	shards[0].Lock()
	shards[0].n++
	shards[0].Unlock()
	_, _ = pair()
	_, _ = names, shared
	fill()
	reviewed.Lock()
	reviewed.m = nil
	reviewed.Unlock()
	staticOnce.Do(func() { staticData = []int{1} })
	bare.Put(&staticData)
}
