package repo

import (
	"fmt"
	"sync"
	"testing"

	"xcbc/internal/rpm"
)

// TestSetConcurrentMutation hammers a Set from concurrent readers and
// writers; run with -race. Every public method is exercised while
// configurations are added and toggled.
func TestSetConcurrentMutation(t *testing.T) {
	base := New("base", "Base", "")
	if err := base.Publish(rpm.NewPackage("gcc", "4.4.7-4.el6", rpm.ArchX86_64).Build()); err != nil {
		t.Fatal(err)
	}
	s := NewSet(Config{Repo: base, Priority: 10, Enabled: true})

	var wg sync.WaitGroup
	const iters = 500
	wg.Add(4)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			r := New(fmt.Sprintf("extra-%d", i), "Extra", "")
			_ = r.Publish(rpm.NewPackage("filler", fmt.Sprintf("1.%d-1", i), rpm.ArchX86_64).Build())
			s.Add(Config{Repo: r, Priority: 50 + i%5, Enabled: i%2 == 0})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			s.Enable("base", i%2 == 0)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			s.Enabled()
			s.Configs()
			s.Lookup("base")
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			s.Best("gcc")
			s.BestProvider(rpm.Cap("gcc"))
		}
	}()
	wg.Wait()

	s.Enable("base", true)
	if s.Best("gcc") == nil {
		t.Error("base repo lost its package after concurrent churn")
	}
}

// TestSetConcurrentPublishResolve hammers the resolution paths
// (Best/BestWithRepo/BestProvider) while member repositories
// publish and retract and configurations toggle, so lookups race the
// repository indexes and the Set's view swap. Run with -race.
func TestSetConcurrentPublishResolve(t *testing.T) {
	base := New("base", "Base", "")
	if err := base.Publish(
		rpm.NewPackage("gcc", "4.4.7-4.el6", rpm.ArchX86_64).Build(),
		rpm.NewPackage("openmpi", "1.6.4-3.el6", rpm.ArchX86_64).
			Provides(rpm.Cap("mpi")).Build(),
	); err != nil {
		t.Fatal(err)
	}
	churn := New("churn", "Churn", "")
	s := NewSet(
		Config{Repo: base, Priority: 10, Enabled: true},
		Config{Repo: churn, Priority: 50, Enabled: true},
	)

	var wg sync.WaitGroup
	const iters = 500
	wg.Add(4)
	go func() { // publisher/retractor: bumps churn's revision constantly
		defer wg.Done()
		for i := 0; i < iters; i++ {
			p := rpm.NewPackage("filler", fmt.Sprintf("1.%d-1", i), rpm.ArchX86_64).
				Provides(rpm.Cap("virtual-filler")).Build()
			if err := churn.Publish(p); err != nil {
				t.Error(err)
				return
			}
			if i%2 == 0 {
				if err := churn.Retract(p.NEVRA()); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	go func() { // config toggler
		defer wg.Done()
		for i := 0; i < iters; i++ {
			s.Enable("churn", i%2 == 0)
		}
	}()
	go func() { // resolver A: named lookups
		defer wg.Done()
		for i := 0; i < iters; i++ {
			s.Best("gcc")
			s.Best("filler")
			s.BestWithRepo("openmpi")
		}
	}()
	go func() { // resolver B: capability lookups
		defer wg.Done()
		for i := 0; i < iters; i++ {
			s.BestProvider(rpm.Cap("mpi"))
			s.BestProvider(rpm.Cap("virtual-filler"))
			base.WhoProvides(rpm.Cap("mpi"))
		}
	}()
	wg.Wait()

	// The stable repo's content must be intact and resolvable afterwards.
	if p := s.Best("gcc"); p == nil || p.Name != "gcc" {
		t.Errorf("Best(gcc) = %v after concurrent churn", p)
	}
	if p := s.BestProvider(rpm.Cap("mpi")); p == nil || p.Name != "openmpi" {
		t.Errorf("BestProvider(mpi) = %v after concurrent churn", p)
	}
}
