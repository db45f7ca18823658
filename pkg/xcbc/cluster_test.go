package xcbc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestClusterLifecycle walks the full day-2 arc through the SDK: deploy
// asynchronously, fail to open before ready, open, submit jobs, watch them
// through metrics and virtual time, cancel, validate, and check updates.
func TestClusterLifecycle(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer release()
	h, err := NewXCBC(
		WithCluster("littlefe"),
		WithScheduler("torque"),
		WithParallelism(2),
		WithInstallHook(func(string, int) error { <-gate; return nil }),
	).Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Day-2 surface is unreachable while the build is in flight.
	if _, err := h.Cluster(); !errors.Is(err, ErrNotReady) {
		t.Fatalf("Cluster() mid-build = %v, want ErrNotReady", err)
	}

	release()
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	cl, err := h.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	if cl.Name() != "LittleFe" || cl.Scheduler() != "torque" {
		t.Fatalf("cluster = %s/%s", cl.Name(), cl.Scheduler())
	}

	// JobCounts is what a cluster status row reads instead of copying
	// Jobs(); the two must tally in every mix of states.
	countsAgree := func(what string, wantQueued, wantRunning, wantDone int) {
		t.Helper()
		var tally [3]int
		for _, j := range cl.Jobs() {
			switch j.State {
			case JobQueued:
				tally[0]++
			case JobRunning:
				tally[1]++
			default:
				tally[2]++
			}
		}
		queued, running, done := cl.JobCounts()
		if got := [3]int{queued, running, done}; got != tally || got != [3]int{wantQueued, wantRunning, wantDone} {
			t.Fatalf("%s: JobCounts = %v, Jobs() tallies %v, want %d/%d/%d", what, got, tally, wantQueued, wantRunning, wantDone)
		}
	}
	countsAgree("no jobs", 0, 0, 0)
	if cl.Jobs() == nil {
		t.Fatal("Jobs() on an idle cluster is nil, want empty")
	}

	// Submit: a job that fits starts immediately; a cluster-sized one
	// queues behind it.
	small, err := cl.SubmitJob(JobSpec{Name: "relax", User: "alice", Cores: 2,
		Walltime: time.Hour, Runtime: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if small.ID != 1 || small.State != JobRunning || len(small.Nodes) == 0 {
		t.Fatalf("small job = %+v", small)
	}
	big, err := cl.SubmitJob(JobSpec{Name: "assembly", User: "carol", Cores: 10,
		Walltime: 2 * time.Hour, Runtime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if big.State != JobQueued {
		t.Fatalf("big job state = %s, want queued", big.State)
	}
	countsAgree("one running, one queued", 1, 1, 0)
	if _, err := cl.SubmitJob(JobSpec{Cores: 0}); !errors.Is(err, ErrBadJob) {
		t.Fatalf("zero-core submit = %v, want ErrBadJob", err)
	}
	if _, err := cl.SubmitJob(JobSpec{Cores: 10000}); !errors.Is(err, ErrBadJob) {
		t.Fatalf("oversized submit = %v, want ErrBadJob", err)
	}

	// Metrics read the last poll: opening the cluster took one, before any
	// job ran.
	m := cl.Metrics()
	if len(m.Nodes) != 6 {
		t.Fatalf("metrics hosts = %d, want 6 (frontend + 5 computes)", len(m.Nodes))
	}
	if m.ClusterLoad != 0 || m.Polls != 1 {
		t.Fatalf("metrics = %+v, want the idle poll taken at open", m)
	}

	// Virtual time: 15 minutes is enough for the small job (10m runtime)
	// to finish and the big one to start, but not to finish its hour. A
	// poll fires every minute of it, and the last sees the big job's load.
	cl.Advance(15 * time.Minute)
	if m := cl.Metrics(); m.ClusterLoad <= 0 || m.Polls != 16 || m.At != cl.Now() {
		t.Fatalf("metrics after advance = %+v, want load from 16 polls, the last at %v", m, cl.Now())
	}
	done, ok := cl.Job(small.ID)
	if !ok || done.State != JobCompleted {
		t.Fatalf("small job after advance = %+v", done)
	}
	bigNow, _ := cl.Job(big.ID)
	if bigNow.State != JobRunning {
		t.Fatalf("big job after advance = %+v", bigNow)
	}

	countsAgree("one completed, one running", 0, 1, 1)

	// Cancel the running job; cancelling it again is unknown.
	if err := cl.CancelJob(big.ID); err != nil {
		t.Fatal(err)
	}
	countsAgree("one completed, one cancelled", 0, 0, 2)
	if err := cl.CancelJob(big.ID); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("double cancel = %v, want ErrUnknownJob", err)
	}
	jobs := cl.Jobs()
	if len(jobs) != 2 {
		t.Fatalf("jobs = %d, want 2", len(jobs))
	}

	// Validate: the model must be sane and the measured smoke solve must
	// pass the HPL residual check on real arithmetic.
	v, err := cl.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if v.N <= 0 || v.RmaxGF <= 0 || v.RmaxGF >= v.RpeakGF || v.Efficiency <= 0 || v.Efficiency >= 1 {
		t.Fatalf("validation model = %+v", v)
	}
	if !v.SmokeRun || !v.SmokePass || v.SmokeN != 128 {
		t.Fatalf("validation smoke = %+v", v)
	}
	modelOnly, err := cl.Validate(WithSmokeSize(0))
	if err != nil {
		t.Fatal(err)
	}
	if modelOnly.SmokeRun {
		t.Fatal("WithSmokeSize(0) still ran the measured solve")
	}

	// Updates: every node gets a report (no repos attached on the bare
	// XCBC path, so nothing is pending — the shape still holds).
	u := cl.CheckUpdates(UpdateNotify, time.Date(2015, 9, 8, 12, 0, 0, 0, time.UTC))
	if len(u.ByNode) != 6 {
		t.Fatalf("update reports = %d nodes, want 6", len(u.ByNode))
	}
}

// TestClusterAlerts drives load above the default high-load threshold and
// watches the alert raise and clear.
func TestClusterAlerts(t *testing.T) {
	cl, err := NewXCBC(WithCluster("littlefe")).Open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	job, err := cl.SubmitJob(JobSpec{Name: "saturate", User: "alice", Cores: 10,
		Walltime: time.Hour, Runtime: 30 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if m := cl.Metrics(); len(m.ActiveAlerts) != 0 {
		t.Fatalf("alerts %v before any poll saw the job", m.ActiveAlerts)
	}
	cl.Advance(time.Minute)
	m := cl.Metrics() // the minute's poll ran at full load: every compute is saturated
	if len(m.ActiveAlerts) == 0 {
		t.Fatalf("no alerts at cluster load %v", m.ClusterLoad)
	}
	if err := cl.CancelJob(job.ID); err != nil {
		t.Fatal(err)
	}
	cl.Advance(time.Minute)
	if m := cl.Metrics(); len(m.ActiveAlerts) != 0 {
		t.Fatalf("alerts still firing after cancel: %v", m.ActiveAlerts)
	}
	active, log := cl.Alerts()
	if len(active) != 0 {
		t.Fatalf("active = %v", active)
	}
	var raised, cleared bool
	for _, a := range log {
		if a.Rule == "high-load" && a.Firing {
			raised = true
		}
		if a.Rule == "high-load" && !a.Firing {
			cleared = true
		}
	}
	if !raised || !cleared {
		t.Fatalf("alert log missing raise/clear transitions: %+v", log)
	}
}

// TestVendorClusterNoScheduler proves batch operations on a scheduler-less
// vendor deployment fail with the sentinel instead of panicking.
func TestVendorClusterNoScheduler(t *testing.T) {
	cl, err := NewVendor(WithCluster("limulus")).Open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.SubmitJob(JobSpec{Cores: 1}); !errors.Is(err, ErrNoScheduler) {
		t.Fatalf("submit without scheduler = %v, want ErrNoScheduler", err)
	}
	if err := cl.CancelJob(1); !errors.Is(err, ErrNoScheduler) {
		t.Fatalf("cancel without scheduler = %v, want ErrNoScheduler", err)
	}
	if jobs := cl.Jobs(); jobs == nil || len(jobs) != 0 {
		t.Fatalf("jobs without scheduler = %#v, want empty, not nil", jobs)
	}
	if q, r, d := cl.JobCounts(); q+r+d != 0 {
		t.Fatalf("job counts without scheduler = %d/%d/%d", q, r, d)
	}
	// Monitoring and validation still work: they need no batch system.
	if m := cl.Metrics(); len(m.Nodes) == 0 {
		t.Fatal("no metrics on vendor cluster")
	}
}

// TestClusterConcurrentOps hammers one cluster from many goroutines —
// submissions, queries, metrics, virtual-time advances, and command
// execution all interleaved. Run with -race: this is the HTTP handler
// access pattern, and the shared engine underneath is unsynchronized
// without the Operations serialization.
func TestClusterConcurrentOps(t *testing.T) {
	d, err := NewXCBC(WithCluster("littlefe"), WithParallelism(4)).Deploy(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Two Cluster values over one Deployment share the serialization.
	cl1 := d.Open()
	cl2 := d.Open()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i, cl := range []*Cluster{cl1, cl2} {
		wg.Add(1)
		go func(i int, cl *Cluster) {
			defer wg.Done()
			for n := 0; n < 30; n++ {
				job, err := cl.SubmitJob(JobSpec{Name: "spin", User: "u", Cores: 1 + n%2,
					Walltime: time.Hour, Runtime: 5 * time.Minute})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if n%3 == 0 {
					_ = cl.CancelJob(job.ID)
				}
			}
		}(i, cl)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; n < 30; n++ {
			cl1.Advance(10 * time.Minute)
		}
	}()
	for _, cl := range []*Cluster{cl1, cl2} {
		wg.Add(1)
		go func(cl *Cluster) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				cl.Jobs()
				cl.Metrics()
				cl.Alerts()
				cl.Now()
			}
		}(cl)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("goroutines did not finish")
	}
	// 60 jobs were submitted; all must be accounted for.
	if got := len(cl1.Jobs()); got != 60 {
		t.Fatalf("jobs accounted = %d, want 60", got)
	}
}

// BenchmarkAdvance90Days measures the longest advance one request may ask
// for: 90 days of virtual time on an idle cluster, which runs the poll
// armed when the cluster was opened once a minute — 129,600 polls, each
// sampling every host and evaluating the alert rules. The cluster is
// built and opened once; every iteration advances it 90 days further.
func BenchmarkAdvance90Days(b *testing.B) {
	for _, computes := range []int{5, 64} {
		b.Run(fmt.Sprintf("hosts=%d", computes+1), func(b *testing.B) {
			cl, err := NewXCBC(WithCluster("littlefe"), WithNodeCount(computes)).Open(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			before := cl.Metrics().Polls
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				cl.Advance(90 * 24 * time.Hour)
			}
			b.StopTimer()
			b.ReportMetric(float64(cl.Metrics().Polls-before)/float64(b.N), "polls/op")
		})
	}
}
