package xcbc

import (
	"context"
	"errors"
	"maps"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"xcbc/internal/cluster"
)

func TestStartAsyncLifecycle(t *testing.T) {
	h, err := NewXCBC(WithCluster("littlefe"), WithParallelism(2)).Start(context.Background())
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if h.Hardware() == nil || h.Hardware().Name != "LittleFe" {
		t.Fatalf("Hardware = %+v", h.Hardware())
	}
	d, err := h.Wait(context.Background())
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if h.Status() != StateReady {
		t.Fatalf("status = %v, want ready", h.Status())
	}
	if got, ok := h.Deployment(); !ok || got != d {
		t.Fatalf("Deployment() = %v, %v", got, ok)
	}
	if d.Scheduler() != "torque" || d.PackagesInstalled() == 0 {
		t.Fatalf("deployment = %s/%d", d.Scheduler(), d.PackagesInstalled())
	}
	if len(d.Quarantined()) != 0 {
		t.Fatalf("clean build quarantined %v", d.Quarantined())
	}

	// The journal replays the whole build with monotonically increasing,
	// cursor-resumable sequence numbers.
	evs, next := h.Events(0)
	if len(evs) == 0 || next != len(evs) {
		t.Fatalf("events = %d, next %d", len(evs), next)
	}
	stages := map[string]int{}
	for i, ev := range evs {
		if ev.Seq != i {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
		stages[ev.Stage]++
	}
	if stages["frontend"] != 1 || stages["compute"] != 5 || stages["wave"] != 3 {
		t.Errorf("stages = %v", stages)
	}
	if tail, next2 := h.Events(next); len(tail) != 0 || next2 != next {
		t.Errorf("tail read = %d events", len(tail))
	}
}

func TestStartValidatesSynchronously(t *testing.T) {
	cases := []struct {
		name string
		b    Builder
		want error
	}{
		{"unknown cluster", NewXCBC(WithCluster("deep-thought")), ErrUnknownCluster},
		{"unknown scheduler", NewXCBC(WithScheduler("loadleveler")), ErrUnknownScheduler},
		{"diskless", NewXCBC(WithCluster("littlefe-original")), ErrDiskless},
		{"negative parallelism", NewXCBC(WithParallelism(-1)), nil},
		{"negative retries", NewXCBC(WithRetries(-3)), nil},
	}
	for _, tc := range cases {
		h, err := tc.b.Start(context.Background())
		if err == nil {
			t.Errorf("%s: Start succeeded (handle %v)", tc.name, h.Status())
			continue
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestCancelBetweenWaves pins down the cancellation contract: cancelling an
// in-flight build stops it at the next wave boundary — nodes of committed
// waves are fully installed, nodes of never-started waves are untouched,
// and nothing is half-kickstarted. Run under -race.
func TestCancelBetweenWaves(t *testing.T) {
	entered := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	h, err := NewXCBC(
		WithCluster("littlefe"),
		WithParallelism(2),
		WithInstallHook(func(node string, attempt int) error {
			if node == "compute-0-3" { // first member of wave 2
				once.Do(func() { close(entered) })
				<-gate
			}
			return nil
		}),
	).Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	if got := h.Status(); got != StateBuilding {
		t.Fatalf("status mid-build = %v, want building", got)
	}
	h.Cancel()
	close(gate) // wave 2 finishes its kickstarts, then the build observes ctx
	if _, err := h.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait after cancel = %v, want context.Canceled", err)
	}
	if h.Status() != StateCancelled || !errors.Is(h.Err(), context.Canceled) {
		t.Fatalf("status %v err %v", h.Status(), h.Err())
	}

	// Waves 1 and 2 (computes 1-4) committed; wave 3 (compute 5) untouched.
	hw := h.Hardware()
	for _, name := range []string{"compute-0-1", "compute-0-2", "compute-0-3", "compute-0-4"} {
		n, _ := hw.Lookup(name)
		if n.OS() == "" || n.Packages().Len() == 0 {
			t.Errorf("committed node %s not fully installed (os=%q pkgs=%d)", name, n.OS(), n.Packages().Len())
		}
	}
	n, _ := hw.Lookup("compute-0-5")
	if n.OS() != "" || n.Packages().Len() != 0 {
		t.Errorf("pending node touched: os=%q pkgs=%d", n.OS(), n.Packages().Len())
	}
}

func TestRetryRecoversTransientFailure(t *testing.T) {
	attempts := map[string]int{}
	var mu sync.Mutex
	d, err := NewXCBC(
		WithCluster("littlefe"),
		WithParallelism(4),
		WithRetries(2),
		WithInstallHook(func(node string, attempt int) error {
			mu.Lock()
			defer mu.Unlock()
			attempts[node]++
			if node == "compute-0-2" && attempt == 1 {
				return errors.New("transient PXE fault")
			}
			return nil
		}),
	).Deploy(context.Background())
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	if len(d.Quarantined()) != 0 {
		t.Fatalf("recovered node still quarantined: %v", d.Quarantined())
	}
	if attempts["compute-0-2"] != 2 {
		t.Errorf("flaky node attempts = %d, want 2", attempts["compute-0-2"])
	}
}

func TestQuarantineKeepsBuildAlive(t *testing.T) {
	var events []Event
	var mu sync.Mutex
	d, err := NewXCBC(
		WithCluster("littlefe"),
		WithParallelism(2),
		WithRetries(1),
		WithProgress(func(ev Event) { mu.Lock(); events = append(events, ev); mu.Unlock() }),
		WithInstallHook(func(node string, attempt int) error {
			if node == "compute-0-4" {
				return errors.New("dead DIMM")
			}
			return nil
		}),
	).Deploy(context.Background())
	if err != nil {
		t.Fatalf("one bad node aborted the build: %v", err)
	}
	if q := d.Quarantined(); len(q) != 1 || q[0] != "compute-0-4" {
		t.Fatalf("quarantined = %v", q)
	}
	mu.Lock()
	defer mu.Unlock()
	var sawQuarantine bool
	for _, ev := range events {
		if ev.Stage == "quarantine" && ev.Node == "compute-0-4" {
			sawQuarantine = true
		}
	}
	if !sawQuarantine {
		t.Errorf("no quarantine event in %d events", len(events))
	}
}

// TestWaveParallelismShrinksInstallDuration is the paper's point: waves
// bounded by frontend capacity approach hardware-speed builds. At width 8
// the 8 computes of a resized LittleFe install in one wave.
func TestWaveParallelismShrinksInstallDuration(t *testing.T) {
	build := func(parallelism int) time.Duration {
		t.Helper()
		d, err := NewXCBC(WithCluster("littlefe"), WithNodeCount(8),
			WithParallelism(parallelism)).Deploy(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return d.InstallDuration()
	}
	seq := build(1)
	wave := build(8)
	if wave >= seq {
		t.Fatalf("wave build %v not faster than sequential %v", wave, seq)
	}
	if 4*wave > seq {
		t.Errorf("wave build %v > 1/4 of sequential %v", wave, seq)
	}
}

// TestDeployWaitsForCancelledBuildToStop pins the sync contract: when the
// caller's ctx is cancelled, Deploy returns only after the build goroutine
// has actually stopped — so the caller immediately regains exclusive use
// of shared engines and hardware. Run under -race: without the wait, the
// node-state reads below race the still-running build.
func TestDeployWaitsForCancelledBuildToStop(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hw := cluster.NewLittleFe()
	_, err := NewXCBC(
		WithHardware(hw),
		WithParallelism(2),
		WithInstallHook(func(node string, attempt int) error {
			if node == "compute-0-3" { // first member of wave 2
				cancel()
			}
			return nil
		}),
	).Deploy(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Deploy = %v, want context.Canceled", err)
	}
	// Deploy returned after the in-flight wave committed and the build
	// observed cancellation: computes 1-4 installed, compute 5 untouched.
	for i, n := range hw.Computes {
		if i < 4 && n.OS() == "" {
			t.Errorf("committed node %s not installed", n.Name)
		}
		if i == 4 && n.OS() != "" {
			t.Errorf("pending node %s was touched", n.Name)
		}
	}
}

func TestHandleWatchStreamsToTerminal(t *testing.T) {
	h, err := NewXCBC(WithCluster("littlefe"), WithParallelism(2)).Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var seqs []int
	st := h.Watch(context.Background(), func(ev Event) { seqs = append(seqs, ev.Seq) })
	if st != StateReady {
		t.Fatalf("Watch returned %v, want ready", st)
	}
	total, _ := h.Events(0)
	if len(seqs) != len(total) {
		t.Fatalf("Watch delivered %d events, journal holds %d", len(seqs), len(total))
	}
	for i, s := range seqs {
		if s != i {
			t.Fatalf("out-of-order delivery: seqs = %v", seqs)
		}
	}
}

func TestDeployStaysSynchronous(t *testing.T) {
	// The seed API: Deploy blocks and returns the finished deployment.
	d, err := NewXCBC(WithCluster("littlefe")).Deploy(context.Background())
	if err != nil || d == nil {
		t.Fatalf("Deploy = %v, %v", d, err)
	}
	if d.InstallDuration() <= 0 {
		t.Error("no install duration")
	}
}

// TestProgressEqualsJournal pins what the SDK's event conversions must
// preserve: on every build path the WithProgress stream and the handle's
// journal carry the same events, field for field, Seq included.
func TestProgressEqualsJournal(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name   string
		build  func(progress Option) Builder
		stages []string
	}{
		{"xcbc", func(progress Option) Builder {
			return NewXCBC(WithCluster("littlefe"), WithParallelism(2), progress,
				WithInstallHook(func(node string, _ int) error {
					if node == "compute-0-4" {
						return errors.New("dead DIMM")
					}
					return nil
				}))
		}, []string{"compute", "distribution", "frontend", "quarantine", "subsystems", "wave"}},
		{"vendor", func(progress Option) Builder {
			return NewVendor(WithCluster("limulus"), progress)
		}, []string{"vendor"}},
		{"xnit", func(progress Option) Builder {
			return NewXNIT(mustVendor(t), WithProfiles("compilers"), WithScheduler("slurm"),
				WithPackages("R"), progress)
		}, []string{"packages", "profile", "repo", "scheduler"}},
	}
	for _, tc := range cases {
		var progress []Event
		h, err := tc.build(WithProgress(func(ev Event) { progress = append(progress, ev) })).Start(ctx)
		if err != nil {
			t.Fatalf("%s: Start: %v", tc.name, err)
		}
		if _, err := h.Wait(ctx); err != nil {
			t.Fatalf("%s: Wait: %v", tc.name, err)
		}
		journal, _ := h.Events(0)
		if !reflect.DeepEqual(progress, journal) {
			t.Errorf("%s: progress %+v\njournal %+v", tc.name, progress, journal)
		}
		seen := map[string]bool{}
		for _, ev := range journal {
			seen[ev.Stage] = true
		}
		if stages := slices.Sorted(maps.Keys(seen)); !slices.Equal(stages, tc.stages) {
			t.Errorf("%s: stages %v, want %v", tc.name, stages, tc.stages)
		}
	}
}

// TestPoolQueuesBeyondPoolWorkers: the pool every Start shares builds
// poolWorkers() clusters at once, and one more started while they are all
// busy waits in StatePending until a worker frees up.
func TestPoolQueuesBeyondPoolWorkers(t *testing.T) {
	workers := poolWorkers()
	entered, gate := make(chan struct{}, workers+1), make(chan struct{})
	handles := make([]*Handle, workers+1)
	for i := range handles {
		var once sync.Once
		h, err := NewXCBC(WithCluster("littlefe"), WithNodeCount(2), WithInstallHook(func(string, int) error {
			once.Do(func() {
				entered <- struct{}{}
				<-gate
			})
			return nil
		})).Start(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	for range workers {
		select {
		case <-entered:
		case <-time.After(10 * time.Second):
			close(gate)
			t.Fatalf("fewer than %d builds started", workers)
		}
	}
	time.Sleep(20 * time.Millisecond) // a build past the pool's width would start now
	pending := 0
	for _, h := range handles {
		if h.Status() == StatePending {
			pending++
		}
	}
	close(gate)
	if len(entered) != 0 || pending != 1 {
		t.Errorf("%d builds past the pool's %d started and %d pending, want none started and 1 pending", len(entered), workers, pending)
	}
	for _, h := range handles {
		if _, err := h.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}
