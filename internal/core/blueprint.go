package core

import (
	"fmt"
	"slices"
	"sync"

	"xcbc/internal/modules"
	"xcbc/internal/provision"
	"xcbc/internal/rocks"
)

// Blueprint is the build plan of one XCBC recipe — a scheduler plus a set
// of Table 1's optional rolls — worked out once and only read afterwards:
// the distribution, the install plan of both appliances, the frontend's
// module tree, and the progress line that announces the distribution.
// Every deployment of the recipe, on any goroutine, builds from one.
type Blueprint struct {
	dist    *rocks.Distribution
	plan    *provision.Plan
	modules *modules.System
	message string
}

// recipe keys a Blueprint: the scheduler's index in Schedulers and a mask
// whose bit i selects OptionalRollNames[i]. Request order and repeats do
// not reach it, so there are at most 3 × 2¹¹ recipes.
type recipe struct {
	scheduler int
	rolls     uint16
}

func recipeOf(scheduler string, rolls []string) (recipe, error) {
	r := recipe{scheduler: slices.Index(Schedulers, scheduler)}
	if r.scheduler < 0 {
		return r, fmt.Errorf("%w %q (choose one of %v)", ErrUnknownScheduler, scheduler, Schedulers)
	}
	for _, name := range rolls {
		i := slices.Index(OptionalRollNames, name)
		if i < 0 {
			return r, fmt.Errorf("%w %q", ErrUnknownRoll, name)
		}
		r.rolls |= 1 << i
	}
	return r, nil
}

// CheckRecipe reports whether a build of scheduler with rolls can start,
// failing with ErrUnknownScheduler or ErrUnknownRoll as the build would.
func CheckRecipe(scheduler string, rolls []string) error {
	_, err := recipeOf(scheduler, rolls)
	return err
}

// NewBlueprint works out the build plan for a scheduler and optional
// rolls. It is pure: the rolls enter the distribution in Table 1's order
// whatever order they are named in, and a repeated name counts once.
func NewBlueprint(scheduler string, rolls []string) (*Blueprint, error) {
	r, err := recipeOf(scheduler, rolls)
	if err != nil {
		return nil, err
	}
	byName := CatalogByName(Catalog())
	set := []*rocks.Roll{baseRoll(byName), xsedeRoll(byName, scheduler)}
	for i, name := range OptionalRollNames {
		if r.rolls&(1<<i) != 0 {
			set = append(set, optionalRoll(byName, name))
		}
	}
	dist, err := rocks.BuildDistribution("xcbc-"+XCBCVersion+"-"+scheduler, set...)
	if err != nil {
		return nil, err
	}
	g := rocks.DefaultGraph()
	if err := rocks.AttachXSEDEFragments(g, scheduler); err != nil {
		return nil, err
	}
	plan, err := provision.NewPlan(dist, g)
	if err != nil {
		return nil, err
	}
	return &Blueprint{
		dist:    dist,
		plan:    plan,
		modules: modules.FromPackages(plan.Frontend.DB.Installed(), CategoryCompilers, CategorySciApps),
		message: fmt.Sprintf("assembled %s (%d rolls)", dist.Name, len(set)),
	}, nil
}

// blueprints is the one table behind every build: a Blueprint per recipe,
// made on first request. Its key bounds it at 3 × 2048 entries whatever
// callers ask for.
//
//detlint:global bounded by the closed recipe space, and a Blueprint is never written once stored
var blueprints struct {
	sync.Mutex
	m map[recipe]*Blueprint
}

// blueprintFor returns the recipe's shared Blueprint.
func blueprintFor(scheduler string, rolls []string) (*Blueprint, error) {
	r, err := recipeOf(scheduler, rolls)
	if err != nil {
		return nil, err
	}
	blueprints.Lock()
	defer blueprints.Unlock()
	if bp, ok := blueprints.m[r]; ok {
		return bp, nil
	}
	bp, err := NewBlueprint(scheduler, rolls)
	if err != nil {
		return nil, err
	}
	if blueprints.m == nil {
		blueprints.m = make(map[recipe]*Blueprint)
	}
	blueprints.m[r] = bp
	return bp, nil
}

// BuildDistribution returns the complete XCBC install tree: base roll,
// XSEDE roll for the chosen scheduler, plus the requested optional rolls.
// Requests naming the same set of rolls share one immutable distribution.
func BuildDistribution(scheduler string, optionalRolls ...string) (*rocks.Distribution, error) {
	bp, err := blueprintFor(scheduler, optionalRolls)
	if err != nil {
		return nil, err
	}
	return bp.dist, nil
}
