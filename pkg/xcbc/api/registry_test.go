package api

import (
	"fmt"
	"sync"
	"testing"
)

// TestRegistryQuotaUnderConcurrentInsert races many creators at a capped
// registry: exactly max inserts win, every loser gets the typed quota
// body, and the winners hold distinct IDs.
func TestRegistryQuotaUnderConcurrentInsert(t *testing.T) {
	const creators, quota = 64, 10
	g := newRegistry[int]("d", "deployments", quota)
	var wg sync.WaitGroup
	var mu sync.Mutex
	won := map[int]bool{}
	for i := range creators {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var gotID string
			_, qe := g.insert(func(id string) int { gotID = id; return i })
			if qe != nil {
				if qe.Code != "quota_exceeded" || qe.Resource != "deployments" || qe.Limit != quota || qe.InUse != quota {
					t.Errorf("quota body = %+v", qe)
				}
				return
			}
			mu.Lock()
			won[numSuffix(gotID)] = true
			mu.Unlock()
			if n := g.len(); n > quota {
				t.Errorf("registry holds %d items, quota %d", n, quota)
			}
		}()
	}
	wg.Wait()
	if len(won) != quota || g.len() != quota {
		t.Fatalf("%d distinct winners, %d items, want %d of each", len(won), g.len(), quota)
	}
}

// TestRegistryRestoreContinuesIDs deletes the highest-numbered item, then
// rebuilds a registry the way recovery does — restore what survived,
// advance to the journal's high-water mark — and requires the next ID to
// be fresh rather than a reuse of the deleted one.
func TestRegistryRestoreContinuesIDs(t *testing.T) {
	g := newRegistry[string]("f", "fleets", 0)
	for range 3 {
		g.insert(func(id string) string { return id })
	}
	if _, found, removed := g.removeIf("f3", func(string) bool { return true }); !found || !removed {
		t.Fatalf("removeIf(f3) = found %v removed %v", found, removed)
	}
	if _, found, removed := g.removeIf("f2", func(string) bool { return false }); !found || removed {
		t.Fatalf("removeIf(f2, never) = found %v removed %v", found, removed)
	}

	r := newRegistry[string]("f", "fleets", 0)
	r.restore("f2", "f2")
	r.restore("f1", "f1")
	if got, _ := r.insert(func(id string) string { return id }); got != "f3" {
		t.Fatalf("without the high-water mark the next ID is %q, want f3 (the reuse advance prevents)", got)
	}
	r.removeIf("f3", func(string) bool { return true })
	r.advance(3)
	if got, _ := r.insert(func(id string) string { return id }); got != "f4" {
		t.Fatalf("next ID after restore+advance = %q, want f4", got)
	}
}

// TestRegistryPage pins numeric-suffix ordering and the floor-cursor
// contract, including the stable tail on an empty page.
func TestRegistryPage(t *testing.T) {
	g := newRegistry[string]("d", "deployments", 0)
	for range 12 {
		g.insert(func(id string) string { return id })
	}
	g.removeIf("d3", func(string) bool { return true })
	for _, tc := range []struct {
		pg   page
		want string
		next int
	}{
		{page{0, 4}, "[d1 d2 d4 d5]", 5},
		{page{8, 100}, "[d9 d10 d11 d12]", 12},
		{page{2, 1}, "[d4]", 4},
		{page{12, 5}, "[]", 12},
		{page{40, 5}, "[]", 40},
	} {
		got, next := g.page(tc.pg)
		if fmt.Sprint(got) != tc.want || next != tc.next {
			t.Errorf("page(%+v) = %v next %d, want %s next %d", tc.pg, got, next, tc.want, tc.next)
		}
	}
}
