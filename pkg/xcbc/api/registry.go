package api

import (
	"fmt"
	"sync"
)

// registry is one collection of one resource kind: a tenant's deployments,
// fleets or campaigns, or a fleet's scenario runs. It owns what every kind
// needs exactly once — the ID sequence, the quota check inside the insert
// critical section, lookup, conditional removal, recovery restore, and
// numeric-suffix paging — under its own lock, so kinds never contend.
type registry[T any] struct {
	prefix string // IDs are prefix + sequence number: "d7", "f3"
	kind   string // resource name in quota errors
	max    int    // live-item quota; 0 = unlimited

	mu    sync.RWMutex
	items map[string]T
	next  int
}

func newRegistry[T any](prefix, kind string, max int) *registry[T] {
	return &registry[T]{prefix: prefix, kind: kind, max: max, items: make(map[string]T)}
}

// insert allocates the next ID and stores mk(id). The quota check shares
// the insert's critical section, so concurrent creates cannot both squeeze
// under the cap; over quota nothing is stored and the typed 403 body is
// returned instead.
func (g *registry[T]) insert(mk func(id string) T) (T, *quotaError) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if n := len(g.items); g.max > 0 && n >= g.max {
		var zero T
		return zero, &quotaError{
			Err:      fmt.Sprintf("%s quota exceeded: %d of %d in use", g.kind, n, g.max),
			Code:     "quota_exceeded",
			Resource: g.kind,
			Limit:    g.max,
			InUse:    n,
		}
	}
	g.next++
	id := fmt.Sprintf("%s%d", g.prefix, g.next)
	item := mk(id)
	g.items[id] = item
	return item, nil
}

func (g *registry[T]) get(id string) (T, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	item, ok := g.items[id]
	return item, ok
}

func (g *registry[T]) len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.items)
}

// removeIf deletes id when removable(item) holds, deciding and deleting in
// one critical section. It reports whether the item existed and whether it
// was removed.
func (g *registry[T]) removeIf(id string, removable func(T) bool) (item T, found, removed bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	item, found = g.items[id]
	if found && removable(item) {
		delete(g.items, id)
		removed = true
	}
	return item, found, removed
}

// restore reinstates a recovered item under its recorded ID and moves the
// ID sequence past it.
func (g *registry[T]) restore(id string, item T) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.items[id] = item
	g.next = max(g.next, numSuffix(id))
}

// advance moves the ID sequence to at least n: the journal remembers the
// highest ID ever issued, which restore cannot see once that item is
// deleted.
func (g *registry[T]) advance(n int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.next = max(g.next, n)
}

// page selects one page of items: order by numeric ID suffix ("d2" before
// "d10"), skip IDs at or below the cursor, take up to limit. It returns
// the page and the next cursor (the last returned ID's number; the cursor
// itself when the page is empty, so clients can poll a stable tail).
func (g *registry[T]) page(pg page) ([]T, int) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	ids := make([]string, 0, len(g.items))
	for id := range g.items {
		if numSuffix(id) > pg.cursor {
			ids = append(ids, id)
		}
	}
	sortByNum(ids)
	ids = ids[:min(len(ids), pg.limit)]
	out := make([]T, len(ids))
	next := pg.cursor
	for i, id := range ids {
		out[i] = g.items[id]
		next = numSuffix(id)
	}
	return out, next
}
