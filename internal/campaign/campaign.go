// Package campaign turns the scenario engine into a bug-finding machine:
// sweep N generated seeds across a bounded worker pool, check metamorphic
// invariants on every run that go beyond each script's own asserts — jobs
// conserved against the trace, no lost members or unaccounted nodes, trace
// determinism (run twice, byte-compare), and recovery equivalence (journal
// the run through internal/wal, crash, recover, and require the replay to
// match the recorded trace-prefix hash) — and delta-debug any failure down
// to a minimal committed repro.
//
// A campaign is NOT itself trace-deterministic (the pool interleaves
// seeds), but every per-seed verdict is: each seed runs scenario.Generate
// output on private fleets, so verdicts depend only on the seed and the
// code under test.
package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"

	"xcbc/internal/orchestrator"
	"xcbc/internal/scenario"
	"xcbc/internal/wal"
)

// Seed states reported per swept seed.
const (
	StatePassed = "passed" // all checks held
	StateFailed = "failed" // at least one invariant violated; repro attached
	StateError  = "error"  // mechanical failure (cancelled mid-run)
)

// Spec configures a sweep.
type Spec struct {
	// Seeds is how many consecutive seeds to sweep; must be >= 1.
	Seeds int `json:"seeds"`
	// StartSeed is the first seed (campaigns shard a seed space by
	// starting different campaigns at different offsets).
	StartSeed int64 `json:"start_seed,omitempty"`
	// Workers bounds concurrent seed runs (0 = min(8, GOMAXPROCS)).
	Workers int `json:"workers,omitempty"`
	// ShrinkBudget caps shrink predicate evaluations per failure
	// (0 = default). Each evaluation re-runs a candidate scenario twice.
	ShrinkBudget int `json:"shrink_budget,omitempty"`

	// CheckHook, when set, contributes extra violations to every run's
	// check list. It is the test-only seam the planted-bug acceptance test
	// uses; the hook must be deterministic in (scenario, result) or shrunk
	// repros will not reproduce. Not serialized.
	CheckHook func(*scenario.Scenario, *scenario.Result) []string `json:"-"`
}

func (s Spec) withDefaults() Spec {
	if s.Workers <= 0 {
		s.Workers = runtime.GOMAXPROCS(0)
		if s.Workers > 8 {
			s.Workers = 8
		}
		if s.Workers < 2 {
			s.Workers = 2
		}
	}
	return s
}

// Validate rejects impossible specs.
func (s Spec) Validate() error {
	if s.Seeds < 1 {
		return fmt.Errorf("campaign: seeds must be >= 1, got %d", s.Seeds)
	}
	if s.Workers < 0 {
		return fmt.Errorf("campaign: negative workers %d", s.Workers)
	}
	if s.ShrinkBudget < 0 {
		return fmt.Errorf("campaign: negative shrink budget %d", s.ShrinkBudget)
	}
	return nil
}

// Failure is one seed's verdict with its minimized repro: the shrunk
// scenario as standalone JSON (loadable by Decode / clusterctl) plus the
// shrinking cost. Re-running Repro reproduces the violations
// deterministically.
type Failure struct {
	Seed        int64           `json:"seed"`
	Violations  []string        `json:"violations"`
	Repro       json.RawMessage `json:"repro"`
	ReproPhases int             `json:"repro_phases"`
	ShrinkEvals int             `json:"shrink_evals"`
}

// SeedOutcome is one swept seed's result, delivered to the progress
// observer in seed order.
type SeedOutcome struct {
	Seed       int64    `json:"seed"`
	State      string   `json:"state"`
	Violations []string `json:"violations,omitempty"`
	Error      string   `json:"error,omitempty"`
	Failure    *Failure `json:"failure,omitempty"`
}

// Result summarizes a finished (or interrupted) campaign.
type Result struct {
	Seeds     int       `json:"seeds"`
	StartSeed int64     `json:"start_seed"`
	Completed int       `json:"completed"`
	Passed    int       `json:"passed"`
	Failed    int       `json:"failed"`
	Errors    int       `json:"errors"`
	Failures  []Failure `json:"failures,omitempty"`
}

// RunObserved sweeps the campaign and returns its result. Mechanical
// problems (bad spec, cancellation) surface as the error; invariant
// violations are campaign *data*, reported per seed in the Result. onSeed,
// if not nil, is invoked in seed order on the campaign's goroutine — the
// seam the control plane taps to journal campaign progress.
func RunObserved(ctx context.Context, spec Spec, onSeed func(SeedOutcome)) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.withDefaults()
	res := &Result{Seeds: spec.Seeds, StartSeed: spec.StartSeed}

	pool := orchestrator.New(spec.Workers)
	jobs := make([]*orchestrator.Job, spec.Seeds)
	for i := 0; i < spec.Seeds; i++ {
		seed := spec.StartSeed + int64(i)
		jobs[i] = pool.Submit(ctx, "", 1,
			func(jctx context.Context, emit func(orchestrator.Event) int) (any, error) {
				return sweepSeed(jctx, spec, seed), nil
			})
	}
	// Consume in seed order: the pool interleaves runs, but outcomes (and
	// the journal records an observer writes) land deterministically.
	for i, j := range jobs {
		v, err := j.Wait(context.Background())
		out, ok := v.(SeedOutcome)
		if !ok {
			// Cancelled before running, or the run panicked.
			out = SeedOutcome{Seed: spec.StartSeed + int64(i), State: StateError}
			if err != nil {
				out.Error = err.Error()
			}
		}
		res.Completed++
		switch out.State {
		case StatePassed:
			res.Passed++
		case StateFailed:
			res.Failed++
			if out.Failure != nil {
				res.Failures = append(res.Failures, *out.Failure)
			}
		default:
			res.Errors++
		}
		if onSeed != nil {
			onSeed(out)
		}
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, nil
}

// sweepSeed runs one seed's full check battery and, on failure, shrinks
// the scenario to a minimal repro.
func sweepSeed(ctx context.Context, spec Spec, seed int64) SeedOutcome {
	sc := scenario.Generate(seed)
	violations, mechanical := checkScenario(ctx, spec, sc, true)
	if mechanical != nil {
		return SeedOutcome{Seed: seed, State: StateError, Error: mechanical.Error()}
	}
	if len(violations) == 0 {
		return SeedOutcome{Seed: seed, State: StatePassed}
	}

	// Shrink while the SAME failure reproduces: the predicate re-runs the
	// candidate's battery (minus the WAL round trip — the recovery check
	// needs scratch dirs per eval and never depends on scenario shape
	// beyond the trace itself) and accepts only candidates that trip a
	// violation category the original run tripped. Without that pinning,
	// ddmin slips onto easier unrelated failures — dropping the provision
	// phase fails all-ready and hides the actual bug.
	want := categories(violations)
	fails := func(cand *scenario.Scenario) bool {
		if ctx.Err() != nil {
			return false
		}
		v, mech := checkScenario(ctx, spec, cand, false)
		if mech != nil {
			return false
		}
		for c := range categories(v) { //detlint:ordered set-intersection emptiness test; the answer is order-independent
			if want[c] {
				return true
			}
		}
		return false
	}
	shrunk := scenario.Shrink(sc, fails, spec.ShrinkBudget)
	repro, err := shrunk.Scenario.Encode()
	if err != nil {
		repro = []byte("{}")
	}
	return SeedOutcome{
		Seed: seed, State: StateFailed, Violations: violations,
		Failure: &Failure{
			Seed:        seed,
			Violations:  violations,
			Repro:       repro,
			ReproPhases: len(shrunk.Scenario.Phases),
			ShrinkEvals: shrunk.Evals,
		},
	}
}

// categories reduces violations to their failure signature: the text up
// to the first colon ("jobs-conserved", "trace-determinism", "planted").
// Shrinking matches candidates on signature, not exact message, because
// messages embed counts that legitimately change as the scenario shrinks.
func categories(violations []string) map[string]bool {
	out := make(map[string]bool, len(violations))
	for _, v := range violations {
		if i := strings.IndexByte(v, ':'); i >= 0 {
			out[v[:i]] = true
		} else {
			out[v] = true
		}
	}
	return out
}

// checkScenario runs sc's full metamorphic battery: two runs on private
// fleets, byte-compared for determinism; the script's own asserts; trace
// shape and conservation checks; the caller's hook; and (when withWAL)
// the crash/recover equivalence check through internal/wal. The returned
// error is mechanical (cancellation) — violations are the first value.
func checkScenario(ctx context.Context, spec Spec, sc *scenario.Scenario, withWAL bool) ([]string, error) {
	// Both results die with this call, so their event buffers go back to
	// the run pool — a sweep of thousands of seeds reuses a handful of
	// buffers instead of growing one per run. CheckHook must not retain
	// res.Events past its return.
	first, err := scenario.Run(ctx, sc)
	if err != nil {
		return nil, err
	}
	defer first.Release()
	second, err := scenario.Run(ctx, sc)
	if err != nil {
		return nil, err
	}
	defer second.Release()

	var violations []string
	violations = append(violations, first.Violations...)

	t1, t2 := first.TraceJSONL(), second.TraceJSONL()
	if string(t1) != string(t2) {
		violations = append(violations,
			fmt.Sprintf("trace-determinism: two runs of seed %d diverged (%d vs %d bytes)",
				sc.Seed, len(t1), len(t2)))
	}

	violations = append(violations, checkTrace(sc, first)...)

	if spec.CheckHook != nil {
		violations = append(violations, spec.CheckHook(sc, first)...)
	}

	if withWAL {
		v, err := checkRecoveryEquivalence(first, second)
		if err != nil {
			return nil, err
		}
		violations = append(violations, v...)
	}
	return violations, nil
}

// checkTrace verifies metamorphic invariants the script's asserts do not
// cover, by recomputing them from the raw trace:
//
//   - trace shape: contiguous Seq from 0, scenario.start first,
//     scenario.end last
//   - no lost members: ready + failed + cancelled == members
//   - no lost nodes: quarantined nodes bounded by what the armed phases
//     could possibly damage
//   - jobs conserved: submissions counted from trace events equal the
//     run's aggregate stats
func checkTrace(sc *scenario.Scenario, res *scenario.Result) []string {
	var v []string

	n := len(res.Events)
	if n < 2 {
		return append(v, fmt.Sprintf("trace-shape: %d events, want >= 2", n))
	}
	for i, ev := range res.Events {
		if ev.Seq != i {
			v = append(v, fmt.Sprintf("trace-shape: event %d has seq %d (gap or reorder)", i, ev.Seq))
			break
		}
	}
	if res.Events[0].Kind != "scenario.start" {
		v = append(v, fmt.Sprintf("trace-shape: first event %q, want scenario.start", res.Events[0].Kind))
	}
	if res.Events[n-1].Kind != "scenario.end" {
		v = append(v, fmt.Sprintf("trace-shape: last event %q, want scenario.end", res.Events[n-1].Kind))
	}

	st := res.Stats
	if st.Ready+st.Failed+st.Cancelled != st.Members {
		v = append(v, fmt.Sprintf("members-conserved: ready=%d failed=%d cancelled=%d members=%d",
			st.Ready, st.Failed, st.Cancelled, st.Members))
	}

	if sc.Fleet.Nodes > 0 {
		quarantinePhases := 0
		for _, p := range sc.Phases {
			if p.Kind == scenario.KindFault && p.Fault == scenario.FaultQuarantine {
				quarantinePhases++
			}
		}
		bound := sc.Fleet.Members * sc.Fleet.Nodes * (1 + quarantinePhases)
		if st.QuarantinedNodes < 0 || st.QuarantinedNodes > bound {
			v = append(v, fmt.Sprintf("nodes-conserved: quarantined=%d outside [0,%d]",
				st.QuarantinedNodes, bound))
		}
	}

	submitted := 0
	for _, ev := range res.Events {
		switch ev.Kind {
		case "jobs.submitted":
			var count, cores int
			var runtime string
			if _, err := fmt.Sscanf(ev.Detail, "count=%d cores=%d runtime=%s", &count, &cores, &runtime); err == nil {
				submitted += count
			}
		case "fault.job-flood":
			var acc, rej int
			if _, err := fmt.Sscanf(ev.Detail, "submitted=%d rejected=%d", &acc, &rej); err == nil {
				submitted += acc
			}
		}
	}
	if submitted != st.JobsSubmitted {
		v = append(v, fmt.Sprintf("jobs-conserved: trace shows %d submissions, stats claim %d",
			submitted, st.JobsSubmitted))
	}
	return v
}

// checkRecoveryEquivalence simulates the durability path: journal the
// first half of run one's trace through a real internal/wal log with the
// rolling prefix hash a crashed server would have recorded, close
// ("crash"), reopen, and require (a) the recovered records to be
// byte-identical to the journaled prefix and (b) run two — the replay — to
// reach the recorded hash at the recorded cursor. The returned error is
// mechanical (scratch dir unavailable).
func checkRecoveryEquivalence(first, second *scenario.Result) ([]string, error) {
	dir, err := os.MkdirTemp("", "campaign-wal-")
	if err != nil {
		return nil, fmt.Errorf("campaign: wal scratch dir: %w", err)
	}
	defer os.RemoveAll(dir)

	cursor := len(first.Events) / 2
	log, _, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		return nil, fmt.Errorf("campaign: wal open: %w", err)
	}
	for _, ev := range first.Events[:cursor] {
		if _, err := log.AppendJSON("campaign.event", ev); err != nil {
			return nil, errors.Join(fmt.Errorf("campaign: wal append: %w", err), log.Close())
		}
	}
	sum := prefixHash(first.Events, cursor)
	if _, err := log.AppendJSON("campaign.cursor", map[string]any{"cursor": cursor, "hash": sum}); err != nil {
		return nil, errors.Join(fmt.Errorf("campaign: wal append cursor: %w", err), log.Close())
	}
	if err := log.Close(); err != nil {
		return nil, fmt.Errorf("campaign: wal close: %w", err)
	}

	reopened, rec, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		return []string{fmt.Sprintf("recovery-equivalence: reopen failed: %v", err)}, nil
	}
	defer reopened.Close() //detlint:errdrop read-only reopen for inspection; the verdict is already computed from rec

	var v []string
	if rec.Repaired || rec.DroppedBytes != 0 {
		v = append(v, fmt.Sprintf("recovery-equivalence: clean shutdown needed repair (dropped=%d)", rec.DroppedBytes))
	}
	if got := len(rec.Records); got != cursor+1 {
		return append(v, fmt.Sprintf("recovery-equivalence: recovered %d records, want %d", got, cursor+1)), nil
	}

	// (a) The journaled prefix survives byte-for-byte.
	var line []byte
	for i, r := range rec.Records[:cursor] {
		if line = first.Events[i].AppendJSON(line[:0]); !bytes.Equal(r.Data, line) {
			v = append(v, "recovery-equivalence: recovered events diverge from the journaled trace prefix")
			break
		}
	}

	// (b) The replay (an independent run from the same seed) reaches the
	// recorded hash at the recorded cursor — what the control plane's
	// replay oracle verifies after a real crash.
	var marker struct {
		Cursor int    `json:"cursor"`
		Hash   uint64 `json:"hash"`
	}
	if err := json.Unmarshal(rec.Records[cursor].Data, &marker); err != nil {
		return append(v, fmt.Sprintf("recovery-equivalence: cursor record corrupt: %v", err)), nil
	}
	if got := prefixHash(second.Events, marker.Cursor); got != marker.Hash {
		v = append(v, fmt.Sprintf("recovery-equivalence: replay hash %x at cursor %d, recorded %x",
			got, marker.Cursor, marker.Hash))
	}
	return v, nil
}

// prefixHash is the replay fingerprint after a trace's first k events, or
// after all of them when the trace is shorter.
func prefixHash(evs []scenario.Event, k int) uint64 {
	th := scenario.NewTraceHash()
	for _, ev := range evs[:min(k, len(evs))] {
		th.Add(ev)
	}
	return th.Sum64()
}
