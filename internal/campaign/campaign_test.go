package campaign

import (
	"context"
	"strings"
	"testing"

	"xcbc/internal/scenario"
)

// TestCampaignSweepClean is the acceptance sweep: every seed must pass the
// full battery — the script's own asserts, trace determinism (two runs,
// byte-compared), metamorphic trace checks, and WAL recovery equivalence —
// on the fixed tree. 64 seeds normally, 32 under -short (the CI smoke).
func TestCampaignSweepClean(t *testing.T) {
	seeds := 64
	if testing.Short() {
		seeds = 32
	}
	res, err := RunObserved(context.Background(), Spec{Seeds: seeds, Workers: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Seeds || res.Failed != 0 || res.Errors != 0 {
		t.Fatalf("campaign not clean: %+v (failures: %v)", res, res.Failures)
	}
	if res.Passed != seeds || res.Completed != seeds {
		t.Fatalf("passed=%d completed=%d, want %d", res.Passed, res.Completed, seeds)
	}
}

// plantedHook is the deliberately planted invariant bug behind the
// test-only CheckHook seam: it claims any run that flooded jobs is a
// violation. Deterministic in the scenario, so shrunk repros re-fail.
func plantedHook(sc *scenario.Scenario, res *scenario.Result) []string {
	for _, p := range sc.Phases {
		if p.Kind == scenario.KindFault && p.Fault == scenario.FaultJobFlood {
			return []string{"planted: job-flood ran"}
		}
	}
	return nil
}

// floodSeedRange finds a compact seed window whose generated scenarios
// include at least one with a job-flood phase.
func floodSeedRange(t *testing.T) (start int64, n int) {
	t.Helper()
	for seed := int64(0); seed < 200; seed++ {
		if plantedHook(scenario.Generate(seed), nil) != nil {
			return seed, 4
		}
	}
	t.Fatal("no generated scenario with a job-flood phase in 200 seeds")
	return 0, 0
}

// TestCampaignDetectsPlantedBug is the ISSUE's acceptance criterion: a
// campaign over a planted invariant bug detects it, shrinks the scenario
// to a minimal repro, and the repro re-fails deterministically standalone.
func TestCampaignDetectsPlantedBug(t *testing.T) {
	start, n := floodSeedRange(t)
	res, err := RunObserved(context.Background(), Spec{
		Seeds: n, StartSeed: start, Workers: 4, CheckHook: plantedHook,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 || len(res.Failures) == 0 {
		t.Fatalf("campaign missed the planted bug: %+v", res)
	}

	f := res.Failures[0]
	found := false
	for _, v := range f.Violations {
		if strings.HasPrefix(v, "planted:") {
			found = true
		}
	}
	if !found {
		t.Fatalf("failure lacks the planted violation: %v", f.Violations)
	}
	if f.ShrinkEvals == 0 {
		t.Error("failure was not shrunk at all")
	}

	// The shrunk repro must be a loadable standalone script that still
	// trips the planted check — deterministically, run after run.
	repro, err := scenario.Decode(f.Repro)
	if err != nil {
		t.Fatalf("repro does not decode: %v\n%s", err, f.Repro)
	}
	if len(repro.Phases) >= len(scenario.Generate(f.Seed).Phases) {
		t.Errorf("repro has %d phases, original had %d — nothing shrunk",
			len(repro.Phases), len(scenario.Generate(f.Seed).Phases))
	}
	for i := 0; i < 2; i++ {
		run, err := scenario.Run(context.Background(), repro)
		if err != nil {
			t.Fatalf("repro run %d: %v", i, err)
		}
		if plantedHook(repro, run) == nil {
			t.Fatalf("repro run %d no longer trips the planted check", i)
		}
	}
}

// TestCampaignProgressOrder requires the observer to see every seed
// exactly once, in seed order, regardless of pool interleaving.
func TestCampaignProgressOrder(t *testing.T) {
	const seeds = 12
	var got []int64
	res, err := RunObserved(context.Background(), Spec{Seeds: seeds, StartSeed: 100, Workers: 4},
		func(out SeedOutcome) { got = append(got, out.Seed) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != seeds || len(got) != seeds {
		t.Fatalf("completed=%d observed=%d, want %d", res.Completed, len(got), seeds)
	}
	for i, s := range got {
		if s != 100+int64(i) {
			t.Fatalf("outcome %d is seed %d, want %d", i, s, 100+int64(i))
		}
	}
}

func TestCampaignSpecValidate(t *testing.T) {
	cases := []Spec{
		{Seeds: 0},
		{Seeds: -1},
		{Seeds: 1, Workers: -2},
		{Seeds: 1, ShrinkBudget: -1},
	}
	for _, spec := range cases {
		if err := spec.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", spec)
		}
		if _, err := RunObserved(context.Background(), spec, nil); err == nil {
			t.Errorf("RunObserved(%+v) = nil error, want error", spec)
		}
	}
	if err := (Spec{Seeds: 1}).Validate(); err != nil {
		t.Errorf("minimal spec rejected: %v", err)
	}
}

// TestCampaignCancelled interrupts a sweep mid-flight: the partial result
// must still account for every seed (as errors where runs were killed) and
// the campaign must report the cancellation.
func TestCampaignCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunObserved(ctx, Spec{Seeds: 8, Workers: 2}, nil)
	if err == nil {
		t.Fatal("cancelled campaign returned nil error")
	}
	if res == nil || res.Completed != 8 {
		t.Fatalf("partial result = %+v, want all 8 seeds accounted", res)
	}
	if res.Errors == 0 {
		t.Fatalf("no seed reported the cancellation: %+v", res)
	}
}

// runOnce produces one scenario run for white-box checks below.
func runOnce(t *testing.T, seed int64) (*scenario.Scenario, *scenario.Result) {
	t.Helper()
	sc := scenario.Generate(seed)
	res, err := scenario.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	return sc, res
}

// TestCheckTraceDetectsTampering mutates real runs in every way checkTrace
// guards against; each mutation must produce a violation.
func TestCheckTraceDetectsTampering(t *testing.T) {
	sc, clean := runOnce(t, 0)
	if v := checkTrace(sc, clean); len(v) != 0 {
		t.Fatalf("clean run flagged: %v", v)
	}

	t.Run("seq gap", func(t *testing.T) {
		_, res := runOnce(t, 0)
		res.Events[1].Seq = 99
		if v := checkTrace(sc, res); len(v) == 0 {
			t.Fatal("seq gap not detected")
		}
	})
	t.Run("missing start", func(t *testing.T) {
		_, res := runOnce(t, 0)
		res.Events[0].Kind = "bogus"
		if v := checkTrace(sc, res); len(v) == 0 {
			t.Fatal("missing scenario.start not detected")
		}
	})
	t.Run("missing end", func(t *testing.T) {
		_, res := runOnce(t, 0)
		res.Events[len(res.Events)-1].Kind = "bogus"
		if v := checkTrace(sc, res); len(v) == 0 {
			t.Fatal("missing scenario.end not detected")
		}
	})
	t.Run("lost member", func(t *testing.T) {
		_, res := runOnce(t, 0)
		res.Stats.Ready--
		if v := checkTrace(sc, res); len(v) == 0 {
			t.Fatal("lost member not detected")
		}
	})
	t.Run("phantom quarantine", func(t *testing.T) {
		_, res := runOnce(t, 0)
		res.Stats.QuarantinedNodes = sc.Fleet.Members*sc.Fleet.Nodes*len(sc.Phases) + 1
		if v := checkTrace(sc, res); len(v) == 0 {
			t.Fatal("impossible quarantine count not detected")
		}
	})
	t.Run("lost job", func(t *testing.T) {
		_, res := runOnce(t, 0)
		res.Stats.JobsSubmitted++
		if v := checkTrace(sc, res); len(v) == 0 {
			t.Fatal("job count mismatch not detected")
		}
	})
	t.Run("truncated trace", func(t *testing.T) {
		_, res := runOnce(t, 0)
		res.Events = res.Events[:1]
		if v := checkTrace(sc, res); len(v) == 0 {
			t.Fatal("truncated trace not detected")
		}
	})
}

// TestRecoveryEquivalenceDetectsDivergence hands the checker a "replay"
// that differs from the journaled run; the prefix hash must not match.
func TestRecoveryEquivalenceDetectsDivergence(t *testing.T) {
	_, first := runOnce(t, 0)
	if v, err := checkRecoveryEquivalence(first, first); err != nil || len(v) != 0 {
		t.Fatalf("self-equivalence failed: %v %v", v, err)
	}

	_, diverged := runOnce(t, 0)
	diverged.Events[0].Detail = "tampered"
	v, err := checkRecoveryEquivalence(first, diverged)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) == 0 {
		t.Fatal("diverged replay not detected")
	}
}
