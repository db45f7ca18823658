package rpm

import (
	"errors"
	"fmt"
	"strings"
)

// OpKind is the kind of a transaction element.
type OpKind int

// Transaction element kinds.
const (
	OpInstall OpKind = iota
	OpErase
	OpUpgrade // install Pkg, erase Old
)

func (k OpKind) String() string {
	switch k {
	case OpInstall:
		return "install"
	case OpErase:
		return "erase"
	case OpUpgrade:
		return "upgrade"
	}
	return "?"
}

// Op is one element of a transaction.
type Op struct {
	Kind OpKind
	Pkg  *Package // package being installed/erased/upgraded-to
	Old  *Package // for OpUpgrade: the package being replaced
}

func (o Op) String() string {
	if o.Kind == OpUpgrade {
		return fmt.Sprintf("upgrade %s -> %s", o.Old.NEVRA(), o.Pkg.NEVRA())
	}
	return fmt.Sprintf("%s %s", o.Kind, o.Pkg.NEVRA())
}

// Transaction is an ordered set of package operations applied atomically to
// a DB: either every element applies or the DB is left unchanged.
type Transaction struct {
	Ops []Op
}

// ErrEmptyTransaction is returned when Run is called with no elements.
var ErrEmptyTransaction = errors.New("rpm: empty transaction")

// Install appends an install element.
func (t *Transaction) Install(p *Package) { t.Ops = append(t.Ops, Op{Kind: OpInstall, Pkg: p}) }

// Erase appends an erase element.
func (t *Transaction) Erase(p *Package) { t.Ops = append(t.Ops, Op{Kind: OpErase, Pkg: p}) }

// Upgrade appends an upgrade element replacing old with p.
func (t *Transaction) Upgrade(p, old *Package) {
	t.Ops = append(t.Ops, Op{Kind: OpUpgrade, Pkg: p, Old: old})
}

// Len returns the number of elements.
func (t *Transaction) Len() int { return len(t.Ops) }

// InstallCount returns how many elements add a package (install or upgrade).
func (t *Transaction) InstallCount() int {
	n := 0
	for _, op := range t.Ops {
		if op.Kind == OpInstall || op.Kind == OpUpgrade {
			n++
		}
	}
	return n
}

// DownloadBytes returns the total size of packages to be fetched.
func (t *Transaction) DownloadBytes() int64 {
	var n int64
	for _, op := range t.Ops {
		if op.Kind == OpInstall || op.Kind == OpUpgrade {
			n += op.Pkg.SizeBytes
		}
	}
	return n
}

func (t *Transaction) String() string {
	var b strings.Builder
	for i, op := range t.Ops {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(op.String())
	}
	return b.String()
}

// check builds the post-transaction database on a fork of db and
// validates it: requirements of all post-transaction packages must be
// met, no conflicts, no file collisions, erased packages must be
// installed. It returns the checked database, or all problems found
// rather than stopping at the first one.
func (t *Transaction) check(db *DB) (*DB, []error) {
	var problems []error
	if len(t.Ops) == 0 {
		return nil, []error{ErrEmptyTransaction}
	}
	after := db.Fork()
	for _, op := range t.Ops {
		switch op.Kind {
		case OpInstall:
			if err := after.add(op.Pkg); err != nil {
				problems = append(problems, err)
			}
		case OpErase:
			if err := after.remove(op.Pkg); err != nil {
				problems = append(problems, err)
			}
		case OpUpgrade:
			if err := after.remove(op.Old); err != nil {
				problems = append(problems, err)
			}
			if err := after.add(op.Pkg); err != nil {
				problems = append(problems, err)
			}
		}
	}
	if len(problems) > 0 {
		return nil, problems
	}
	// Dependency closure must hold afterwards.
	for _, req := range after.UnmetRequires() {
		problems = append(problems, fmt.Errorf("rpm: unmet requirement after transaction: %s", req))
	}
	// No conflicting pair may remain.
	installed := after.Installed()
	for i := 0; i < len(installed); i++ {
		for j := i + 1; j < len(installed); j++ {
			// Two packages that both declare no conflicts cannot match each
			// other; skipping the pair keeps this scan cheap on the common
			// catalog where conflicts are rare.
			if len(installed[i].Conflicts) == 0 && len(installed[j].Conflicts) == 0 {
				continue
			}
			if installed[i].ConflictsWith(installed[j]) {
				problems = append(problems, fmt.Errorf("rpm: %s conflicts with %s",
					installed[i].NEVRA(), installed[j].NEVRA()))
			}
		}
	}
	if len(problems) > 0 {
		return nil, problems
	}
	return after, nil
}

// Run checks the transaction and applies it to db atomically: db takes
// the checked database whole, so on error it is unchanged.
func (t *Transaction) Run(db *DB) error {
	if db.frozen {
		return ErrReadOnly
	}
	after, problems := t.check(db)
	if len(problems) > 0 {
		return fmt.Errorf("rpm: transaction check failed: %w", errors.Join(problems...))
	}
	*db = *after
	return nil
}
