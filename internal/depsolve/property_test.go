package depsolve

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"xcbc/internal/repo"
	"xcbc/internal/rpm"
)

// Property: for any randomly generated repository universe and any install
// request, Install either returns an UnresolvableError or a transaction
// that Runs cleanly and leaves the database dependency-closed. The ordered
// variant must behave identically.

func randomRepoUniverse(rng *rand.Rand) (*repo.Set, []string) {
	r := repo.New("rand", "random", "")
	n := 5 + rng.Intn(12)
	var names []string
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("p%02d", i)
		b := rpm.NewPackage(name, fmt.Sprintf("1.%d-%d", rng.Intn(5), 1+rng.Intn(3)), rpm.ArchX86_64)
		// Depend on earlier packages only (acyclic, always resolvable) —
		// except sometimes a dangling dependency to exercise the error path.
		deps := rng.Intn(3)
		for d := 0; d < deps && i > 0; d++ {
			b.Requires(rpm.Cap(fmt.Sprintf("p%02d", rng.Intn(i))))
		}
		if rng.Intn(8) == 0 {
			b.Requires(rpm.Cap("missing-" + name))
		}
		if err := r.Publish(b.Build()); err == nil {
			names = append(names, name)
		}
	}
	return repo.NewSet(repo.Config{Repo: r, Priority: 50, Enabled: true}), names
}

func TestInstallAlwaysValidOrUnresolvableProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		set, names := randomRepoUniverse(rng)
		if len(names) == 0 {
			return true
		}
		// Random request of 1-4 names.
		k := 1 + rng.Intn(4)
		var req []string
		for i := 0; i < k; i++ {
			req = append(req, names[rng.Intn(len(names))])
		}
		db := rpm.NewDB()
		res := New(set, db)
		tx, err := res.Install(req...)
		if err != nil {
			var ue *UnresolvableError
			return errors.As(err, &ue)
		}
		if tx.Len() == 0 {
			return true
		}
		if err := tx.Run(db); err != nil {
			return false
		}
		return len(db.UnmetRequires()) == 0
	}
	cfg := &quick.Config{MaxCount: 250, Rand: rand.New(rand.NewSource(41))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestUpdateAllIdempotentProperty(t *testing.T) {
	// After an auto-applied update check succeeds, a second CheckUpdates is
	// always empty.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		set, names := randomRepoUniverse(rng)
		if len(names) == 0 {
			return true
		}
		db := rpm.NewDB()
		res := New(set, db)
		tx, err := res.Install(names[rng.Intn(len(names))])
		if err != nil {
			return true // dangling dep universe; fine
		}
		if err := tx.Run(db); err != nil {
			return tx.Len() == 0
		}
		// Publish newer builds of everything installed.
		for _, c := range set.Enabled() {
			for _, p := range db.Installed() {
				newer := p.Clone()
				newer.EVR.Release = p.EVR.Release + ".1"
				_ = c.Repo.Publish(newer)
			}
		}
		if n := res.RunUpdateCheck(PolicyAutoApply, time.Time{}); n.ApplyErr != nil {
			return false
		}
		return len(res.CheckUpdates()) == 0
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(43))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
