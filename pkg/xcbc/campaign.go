package xcbc

import (
	"context"
	"errors"
	"fmt"

	"xcbc/internal/campaign"
	"xcbc/internal/scenario"
)

// Campaigns: generative chaos at sweep scale. A campaign generates one
// valid scenario per seed (GenerateScenario), runs each on private fleets
// across a bounded worker pool, and checks metamorphic invariants that go
// beyond the scripts' own asserts — trace determinism (run twice,
// byte-compare), jobs/members/nodes conservation recomputed from the raw
// trace, and WAL crash/recovery equivalence. Any failing seed is
// delta-debugged down to a minimal standalone repro script.

// ErrBadCampaign reports an impossible campaign spec (zero seeds,
// negative workers or shrink budget). Test with errors.Is.
var ErrBadCampaign = errors.New("xcbc: invalid campaign spec")

// Campaign seed states, as reported per swept seed and per failure.
const (
	CampaignSeedPassed = campaign.StatePassed
	CampaignSeedFailed = campaign.StateFailed
)

// CampaignCheckHook contributes extra violations to every generated run's
// check list — the deterministic fault-injection seam campaign tests use
// to plant invariant bugs. The hook must be a pure function of (scenario,
// result) or shrunk repros will not reproduce.
type CampaignCheckHook func(*Scenario, *ScenarioResult) []string

// CampaignSpec configures a campaign sweep.
type CampaignSpec struct {
	// Seeds is how many consecutive seeds to sweep; must be >= 1.
	Seeds int `json:"seeds"`
	// StartSeed is the first seed (shard a seed space by starting
	// campaigns at different offsets).
	StartSeed int64 `json:"start_seed,omitempty"`
	// Workers bounds concurrent seed runs (0 = min(8, GOMAXPROCS)).
	Workers int `json:"workers,omitempty"`
	// ShrinkBudget caps shrink evaluations per failure (0 = default).
	ShrinkBudget int `json:"shrink_budget,omitempty"`
	// CheckHook, when set, is consulted on every run. Not serialized.
	CheckHook CampaignCheckHook `json:"-"`
}

// Validate rejects impossible specs; failures wrap ErrBadCampaign.
func (s CampaignSpec) Validate() error {
	if err := s.inner().Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadCampaign, err)
	}
	return nil
}

func (s CampaignSpec) inner() campaign.Spec {
	in := campaign.Spec{
		Seeds: s.Seeds, StartSeed: s.StartSeed,
		Workers: s.Workers, ShrinkBudget: s.ShrinkBudget,
	}
	if hook := s.CheckHook; hook != nil {
		in.CheckHook = func(sc *scenario.Scenario, res *scenario.Result) []string {
			return hook(&Scenario{sc: sc}, &ScenarioResult{r: res})
		}
	}
	return in
}

// CampaignFailure is one failing seed's verdict with its minimized repro:
// a standalone scenario script (loadable by LoadScenario) that reproduces
// the violations deterministically, plus what shrinking it cost.
type CampaignFailure = campaign.Failure

// CampaignSeedOutcome is one swept seed's result, delivered to the
// progress observer in seed order.
type CampaignSeedOutcome = campaign.SeedOutcome

// CampaignResult summarizes a finished (or interrupted) campaign.
type CampaignResult = campaign.Result

// GenerateScenario deterministically derives a random valid scenario from
// a seed: same seed, byte-identical script. Generated scenarios always
// pass validation and are constructed so their own asserts hold on a
// correct engine — a violation from one is a finding, not noise.
//
//detlint:reached support: the campaign tests of pkg/xcbc/api and cmd/clusterctl build their repro and replay inputs with it
func GenerateScenario(seed int64) *Scenario {
	return &Scenario{sc: scenario.Generate(seed)}
}

// RunCampaignObserved sweeps spec.Seeds generated scenarios and returns
// the campaign's result. Mechanical problems (bad spec, cancellation)
// surface as the error; invariant violations are campaign data, in the
// result. onSeed, when non-nil, sees each seed's outcome in seed order —
// the seam the control plane taps to journal campaign progress. On
// cancellation the partial result is returned alongside the context error.
func RunCampaignObserved(ctx context.Context, spec CampaignSpec, onSeed func(CampaignSeedOutcome)) (*CampaignResult, error) {
	res, err := campaign.RunObserved(ctx, spec.inner(), onSeed)
	if res == nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCampaign, err)
	}
	return res, err
}
