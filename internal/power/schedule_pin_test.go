package power

// Schedule pin. testdata/schedule-pin.golden pins what each of the four
// scheduling policies makes of one seeded script, with the power manager
// always on and on demand: every job's final state, its submit, start and
// end times and the nodes it last held, the power log, each user's
// consumed core-seconds, and the accounting: every record's core-seconds
// in completion order, every per-user summary row, and the utilization. The script mixes core counts and users, kills jobs
// at their walltime, cancels queued and running jobs, fails and repairs a
// node, drains and undrains another, and advances past the boots of woken
// nodes. The cluster is a LittleFe grown to 11 computes, so compute-0-10
// and compute-0-11 sort before compute-0-2 wherever ties break by name.
//
// Regenerate with: go test ./internal/power -run TestSchedulePinnedToParent -update

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"maps"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"xcbc/internal/cluster"
	"xcbc/internal/sched"
	"xcbc/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/schedule-pin.golden")

func TestSchedulePinnedToParent(t *testing.T) {
	var buf bytes.Buffer
	for _, policy := range []sched.Policy{sched.TorqueMaui{}, sched.PlainFIFO{}, sched.Slurm{}, sched.SGE{}} {
		for _, pp := range []Policy{AlwaysOn, OnDemand} {
			fmt.Fprintf(&buf, "== %s %s\n", policy.Name(), pp)
			pinSchedule(t, &buf, policy, pp)
		}
	}
	golden := filepath.Join("testdata", "schedule-pin.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gotLines), len(wantLines)) {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("%s:%d\n got: %s\nwant: %s", golden, i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("%d lines, %s has %d", len(gotLines), golden, len(wantLines))
	}
}

// pinSchedule runs the seeded script under one scheduling and one power
// policy and writes what it pins to w.
func pinSchedule(t *testing.T, w io.Writer, policy sched.Policy, pp Policy) {
	t.Helper()
	c := cluster.NewLittleFe()
	if err := cluster.ResizeComputes(c, 11); err != nil {
		t.Fatal(err)
	}
	c.PowerOnAll()
	eng := sim.NewEngine()
	batch := sched.NewManager(eng, c, policy)
	pm := NewManager(eng, c, batch, pp)
	pm.IdleGrace = 3 * time.Minute

	rng := rand.New(rand.NewPCG(67, 36))
	users := []string{"alice", "bob", "carol"}
	coreCounts := []int{1, 1, 2, 2, 3, 4, 6, 8, 12}
	walltimes := []time.Duration{10 * time.Minute, 30 * time.Minute, time.Hour}
	advance := func(d time.Duration) { eng.RunUntil(eng.Now() + sim.Time(d)) }
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for step := range 200 {
		switch step {
		case 50:
			must(batch.NodeFail("compute-0-3"))
		case 80:
			must(batch.NodeRepair("compute-0-3"))
		case 100:
			must(batch.Drain("compute-0-10"))
		case 130:
			must(batch.Undrain("compute-0-10"))
		case 150:
			advance(3 * time.Hour) // the queue drains and on-demand nodes sleep
		}
		pick := rng.IntN(1 << 20)
		switch r := rng.IntN(20); {
		case r < 9:
			wall := walltimes[rng.IntN(len(walltimes))]
			_, err := batch.Submit(&sched.Job{
				Name:     fmt.Sprintf("s%d", step),
				User:     users[rng.IntN(len(users))],
				Cores:    coreCounts[rng.IntN(len(coreCounts))],
				Walltime: wall,
				Runtime:  time.Duration(rng.IntN(int(wall*13/10/time.Minute))+1) * time.Minute,
			})
			must(err)
		case r < 11:
			if q := batch.Queued(); len(q) > 0 {
				must(batch.Cancel(q[pick%len(q)].ID))
			}
		case r < 12:
			if running := batch.Running(); len(running) > 0 {
				must(batch.Cancel(running[pick%len(running)].ID))
			}
		default:
			advance(time.Duration(rng.IntN(12)+1) * time.Minute)
		}
	}
	eng.Run()

	if queued, running, _ := batch.JobCounts(); queued+running != 0 {
		t.Fatalf("%s %s: %d queued and %d running after the run", policy.Name(), pp, queued, running)
	}
	jobs := batch.History()
	slices.SortFunc(jobs, func(a, b *sched.Job) int { return a.ID - b.ID })
	for _, j := range jobs {
		var nodes []string
		for _, s := range j.Alloc {
			nodes = append(nodes, fmt.Sprintf("%s:%d", c.Computes[s.Node].Name, s.Cores))
		}
		fmt.Fprintf(w, "job %d %s submit=%v start=%v end=%v nodes=%s\n",
			j.ID, j.State, j.SubmitTime, j.StartTime, j.EndTime, strings.Join(nodes, ","))
	}
	for _, e := range pm.Events() {
		fmt.Fprintf(w, "power %s\n", e)
	}
	usage := batch.Usage()
	for _, u := range slices.Sorted(maps.Keys(usage)) {
		fmt.Fprintf(w, "usage %s %g\n", u, usage[u])
	}
	for _, r := range batch.Records() {
		fmt.Fprintf(w, "record %d %s core-secs=%g\n", r.JobID, r.State, r.CoreSecs)
	}
	for _, s := range batch.UserSummaries() {
		fmt.Fprintf(w, "summary %s jobs=%d core-secs=%g mean-wait=%v\n", s.User, s.Jobs, s.CoreSecs, s.MeanWait)
	}
	fmt.Fprintf(w, "utilization %g\n", batch.Utilization())
}
