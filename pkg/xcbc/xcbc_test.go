package xcbc

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"xcbc/internal/cluster"
	"xcbc/internal/sim"
)

func TestXCBCDeploy(t *testing.T) {
	var events []Event
	d, err := NewXCBC(
		WithCluster("littlefe"),
		WithScheduler("torque"),
		WithRolls("ganglia", "hpc"),
		WithProgress(func(ev Event) { events = append(events, ev) }),
	).Deploy(context.Background())
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	if d.Scheduler() != "torque" {
		t.Errorf("scheduler = %q, want torque", d.Scheduler())
	}
	if d.PackagesInstalled() == 0 {
		t.Error("no packages installed")
	}
	if d.InstallDuration() <= 0 {
		t.Errorf("install duration = %v, want > 0", d.InstallDuration())
	}
	if len(d.InstallLog()) == 0 {
		t.Error("install log empty")
	}

	// The progress stream walks the build: distribution, frontend, one
	// event per compute node, subsystems.
	stages := map[string]int{}
	for _, ev := range events {
		stages[ev.Stage]++
	}
	if stages["distribution"] != 1 || stages["frontend"] != 1 || stages["subsystems"] != 1 {
		t.Errorf("stage counts = %v, want one each of distribution/frontend/subsystems", stages)
	}
	if want := len(d.Hardware().Computes); stages["compute"] != want {
		t.Errorf("compute events = %d, want %d", stages["compute"], want)
	}

	c, err := d.Compat()
	if err != nil {
		t.Fatalf("Compat: %v", err)
	}
	if c.Total == 0 || c.Passed == 0 {
		t.Errorf("compat = %+v, want non-zero checks", c)
	}

	// The command facade answers the scheduler's native vocabulary.
	out, err := d.Exec("qsub -N smoke -l nodes=2:ppn=2,walltime=00:10:00 -u alice job.sh")
	if err != nil {
		t.Fatalf("Exec qsub: %v", err)
	}
	if out == "" {
		t.Error("qsub output empty")
	}
}

func TestWithRollsEmptyMeansBareDistribution(t *testing.T) {
	d, err := NewXCBC(WithCluster("littlefe"), WithRolls()).Deploy(context.Background())
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	rolls := d.Installer().DB.Distribution().RollNames()
	if len(rolls) != 2 {
		t.Fatalf("rolls = %v, want only base + xsede", rolls)
	}
}

func TestXNITDeployIdempotent(t *testing.T) {
	d := mustVendor(t)
	for i := 0; i < 2; i++ {
		if _, err := NewXNIT(d, WithProfiles("compilers")).Deploy(context.Background()); err != nil {
			t.Fatalf("Deploy %d: %v", i, err)
		}
	}
	n := 0
	for _, c := range d.Repos().Configs() {
		if c.Repo.ID == XNITRepoID {
			n++
		}
	}
	if n != 1 {
		t.Errorf("xsede configured %d times after re-adoption, want 1", n)
	}
}

func TestXCBCDeployCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := NewXCBC(WithCluster("littlefe")).Deploy(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Deploy with cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestXCBCDeployDiskless(t *testing.T) {
	_, err := NewXCBC(WithCluster("littlefe-original")).Deploy(context.Background())
	if !errors.Is(err, ErrDiskless) {
		t.Fatalf("diskless deploy error = %v, want ErrDiskless", err)
	}
}

// TestSentinelErrors walks every SDK entry point that refuses a request.
// Each refusal matches its SDK sentinel with errors.Is and is the one
// message the deciding layer wrote: its phrase appears once, on one line
// (the depsolver's listing of what is missing adds a line per requirement).
// Naming the scheduler already running is not a change, so it succeeds
// even with a job running.
func TestSentinelErrors(t *testing.T) {
	ctx := context.Background()
	start := func(b Builder) func() error {
		return func() error { _, err := b.Start(ctx); return err }
	}
	d, err := NewXCBC(WithCluster("littlefe")).Deploy(ctx)
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	cl := d.Open()
	if _, err := cl.SubmitJob(JobSpec{Name: "busy", User: "bob", Cores: 1, Walltime: time.Hour}); err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	adopted, err := NewXNIT(mustVendor(t)).Deploy(ctx)
	if err != nil {
		t.Fatalf("XNIT Deploy: %v", err)
	}
	pair, err := NewFleet(FleetSpec{Members: 2})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	campus, err := BuiltinScenario("campus-100")
	if err != nil {
		t.Fatalf("BuiltinScenario: %v", err)
	}
	cases := []struct {
		name   string
		run    func() error
		want   error // nil: the call succeeds
		phrase string
		lines  int // 0: one line
	}{
		{"unknown cluster", start(NewXCBC(WithCluster("deep-thought"))), ErrUnknownCluster, "unknown catalog machine", 0},
		{"unknown scheduler", start(NewXCBC(WithScheduler("loadleveler"))), ErrUnknownScheduler, "unknown scheduler", 0},
		{"unknown roll", start(NewXCBC(WithRolls("cuda"))), ErrUnknownRoll, "unknown optional roll", 0},
		{"unknown power policy", start(NewXCBC(WithPowerPolicy("solar"))), ErrUnknownPowerPolicy, "unknown power policy", 0},
		{"bad node count", start(NewXCBC(WithNodeCount(-2))), ErrBadNodeCount, "node count must be positive", 0},
		{"diskless", start(NewXCBC(WithCluster("littlefe-original"))), ErrDiskless, "diskless", 0},
		{"nil deployment", start(NewXNIT(nil)), ErrNilDeployment, "nil deployment", 0},
		{"unknown profile", start(NewXNIT(mustVendor(t), WithProfiles("quantum"))), ErrUnknownProfile, "unknown package profile", 0},
		{"vendor unknown scheduler", start(NewVendor(WithScheduler("pbspro"))), ErrUnknownScheduler, "unknown scheduler", 0},
		{"NewCluster", func() error { _, err := NewCluster("deep-thought"); return err }, ErrUnknownCluster, "unknown catalog machine", 0},
		{"install without repos", func() error { _, err := mustVendor(t).InstallPackages("gcc"); return err }, ErrNoRepos, "no enabled repositories", 0},
		{"unresolvable install", func() error { _, err := adopted.InstallPackages("libreoffice"); return err }, ErrUnresolvable, "unresolvable dependencies", 2},
		{"scheduler change, job running", func() error { return d.ChangeScheduler("slurm") }, ErrJobsRunning, "jobs still running", 0},
		{"same scheduler, job running", func() error { return d.ChangeScheduler("torque") }, nil, "", 0},
		{"SubmitJob", func() error { _, err := cl.SubmitJob(JobSpec{Cores: 4096}); return err }, ErrBadJob, "bad job request", 0},
		{"CancelJob", func() error { return cl.CancelJob(42) }, ErrUnknownJob, "unknown job", 0},
		{"LoadScenario", func() error { _, err := LoadScenario([]byte(`{"name":`)); return err }, ErrBadScenario, "invalid scenario", 0},
		{"NewFleet", func() error { _, err := NewFleet(FleetSpec{Members: 0}); return err }, ErrBadFleetSpec, "bad spec", 0},
		{"Fleet.RunScenario, wrong size", func() error { _, err := pair.RunScenario(ctx, campus); return err }, ErrBadScenario, "invalid scenario", 0},
		{"CampaignSpec.Validate", CampaignSpec{}.Validate, ErrBadCampaign, "invalid campaign spec", 0},
		{"RunCampaignObserved", func() error { _, err := RunCampaignObserved(ctx, CampaignSpec{Seeds: 1, Workers: -1}, nil); return err }, ErrBadCampaign, "invalid campaign spec", 0},
	}
	for _, tc := range cases {
		err := tc.run()
		if tc.want == nil || !errors.Is(err, tc.want) {
			if err != tc.want {
				t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
			}
			continue
		}
		msg := err.Error()
		if n := strings.Count(msg, tc.phrase); n != 1 {
			t.Errorf("%s: %q names %q %d times, want once", tc.name, msg, tc.phrase, n)
		}
		if lines := strings.Count(msg, "\n") + 1; lines != max(tc.lines, 1) {
			t.Errorf("%s: %q has %d lines, want %d", tc.name, msg, lines, max(tc.lines, 1))
		}
	}
	if d.Scheduler() != "torque" {
		t.Errorf("scheduler after the refused and no-op changes = %q, want torque", d.Scheduler())
	}
}

func mustVendor(t *testing.T) *Deployment {
	t.Helper()
	d, err := NewVendor(WithCluster("limulus")).Deploy(context.Background())
	if err != nil {
		t.Fatalf("NewVendor: %v", err)
	}
	return d
}

func TestWithNodeCountResize(t *testing.T) {
	for _, n := range []int{2, 9} {
		d, err := NewXCBC(WithCluster("littlefe"), WithNodeCount(n)).Deploy(context.Background())
		if err != nil {
			t.Fatalf("Deploy with %d nodes: %v", n, err)
		}
		if got := len(d.Hardware().Computes); got != n {
			t.Errorf("compute count = %d, want %d", got, n)
		}
	}
}

func TestXNITAdoption(t *testing.T) {
	vendor := mustVendor(t)

	// Installs without a configured repository must fail loudly.
	if _, err := vendor.InstallPackages("gcc"); !errors.Is(err, ErrNoRepos) {
		t.Fatalf("install before XNIT = %v, want ErrNoRepos", err)
	}
	before, err := vendor.Compat()
	if err != nil {
		t.Fatalf("Compat before: %v", err)
	}

	var events []Event
	d, err := NewXNIT(vendor,
		WithProfiles("compilers", "python"),
		WithScheduler("torque"),
		WithPackages("R"),
		WithProgress(func(ev Event) { events = append(events, ev) }),
	).Deploy(context.Background())
	if err != nil {
		t.Fatalf("XNIT Deploy: %v", err)
	}
	if d != vendor {
		t.Error("XNIT must convert the deployment in place")
	}
	if d.Scheduler() != "torque" {
		t.Errorf("scheduler = %q, want torque", d.Scheduler())
	}
	if d.Repo(XNITRepoID) == nil {
		t.Errorf("repo %q not configured", XNITRepoID)
	}
	after, err := d.Compat()
	if err != nil {
		t.Fatalf("Compat after: %v", err)
	}
	if after.Score <= before.Score {
		t.Errorf("compat score %f -> %f, want improvement", before.Score, after.Score)
	}
	stages := map[string]int{}
	for _, ev := range events {
		stages[ev.Stage]++
	}
	if stages["repo"] != 1 || stages["profile"] != 2 || stages["scheduler"] != 1 || stages["packages"] != 1 {
		t.Errorf("stage counts = %v", stages)
	}

	// Unresolvable requests surface the sentinel.
	if _, err := d.InstallPackages("libreoffice"); !errors.Is(err, ErrUnresolvable) {
		t.Errorf("install of unknown package = %v, want ErrUnresolvable", err)
	}
}

func TestChangeSchedulerGuards(t *testing.T) {
	d, err := NewXCBC(WithCluster("littlefe")).Deploy(context.Background())
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	if err := d.ChangeScheduler("cron"); !errors.Is(err, ErrUnknownScheduler) {
		t.Errorf("unknown scheduler = %v, want ErrUnknownScheduler", err)
	}
	if _, err := d.Exec("qsub -N busy -l nodes=1:ppn=1,walltime=01:00:00 -u bob busy.sh"); err != nil {
		t.Fatalf("qsub: %v", err)
	}
	if err := d.ChangeScheduler("slurm"); !errors.Is(err, ErrJobsRunning) {
		t.Errorf("change with running jobs = %v, want ErrJobsRunning", err)
	}
	d.Engine().Run() // drain
	if err := d.ChangeScheduler("slurm"); err != nil {
		t.Fatalf("change after drain: %v", err)
	}
	if d.Scheduler() != "slurm" {
		t.Errorf("scheduler = %q, want slurm", d.Scheduler())
	}
}

func TestUpdateCheck(t *testing.T) {
	d, err := NewXNIT(mustVendor(t), WithProfiles("compilers")).Deploy(context.Background())
	if err != nil {
		t.Fatalf("XNIT Deploy: %v", err)
	}
	chk := d.Open().CheckUpdates(UpdateNotify, time.Date(2015, 4, 1, 6, 0, 0, 0, time.UTC))
	if len(chk.ByNode) != d.Hardware().NodeCount() {
		t.Errorf("checked %d nodes, want %d", len(chk.ByNode), d.Hardware().NodeCount())
	}
	for node, nu := range chk.ByNode {
		if nu.Summary == "" {
			t.Errorf("node %s: empty summary", node)
		}
	}
}

func TestRegistry(t *testing.T) {
	if len(Clusters()) == 0 || len(Profiles()) == 0 {
		t.Fatal("registries must not be empty")
	}
	if _, err := BuildDistribution("torque", "ganglia"); err != nil {
		t.Errorf("BuildDistribution: %v", err)
	}
	if _, err := BuildDistribution("torque", "nosuchroll"); !errors.Is(err, ErrUnknownRoll) {
		t.Errorf("BuildDistribution bad roll = %v, want ErrUnknownRoll", err)
	}
	if _, err := BuildDistribution("nfs", "ganglia"); !errors.Is(err, ErrUnknownScheduler) {
		t.Errorf("BuildDistribution bad scheduler = %v, want ErrUnknownScheduler", err)
	}
	r, err := NewXNITRepository()
	if err != nil {
		t.Fatalf("NewXNITRepository: %v", err)
	}
	if r.Len() == 0 {
		t.Error("XNIT repository empty")
	}
}

// TestAdoptedSchedulerPowersIdleNodesOff: a vendor machine shipped with no
// batch system, given one by XNIT, powers idle computes off on demand just
// as the same machine shipped with that scheduler does.
func TestAdoptedSchedulerPowersIdleNodesOff(t *testing.T) {
	ctx := context.Background()
	idleHourOff := func(d *Deployment) int {
		eng := d.Engine()
		eng.RunUntil(eng.Now() + sim.Time(time.Hour))
		off := 0
		for _, n := range d.Hardware().Computes {
			if n.Power() == cluster.PowerOff {
				off++
			}
		}
		return off
	}
	shipped, err := NewVendor(WithCluster("limulus"), WithScheduler("slurm"),
		WithPowerPolicy(PowerOnDemand)).Deploy(ctx)
	if err != nil {
		t.Fatalf("vendor with slurm: %v", err)
	}
	bare, err := NewVendor(WithCluster("limulus"), WithPowerPolicy(PowerOnDemand)).Deploy(ctx)
	if err != nil {
		t.Fatalf("vendor without a scheduler: %v", err)
	}
	adopted, err := NewXNIT(bare, WithScheduler("slurm")).Deploy(ctx)
	if err != nil {
		t.Fatalf("XNIT: %v", err)
	}
	want := idleHourOff(shipped)
	if want == 0 {
		t.Fatal("the shipped machine powered no idle compute off")
	}
	if got := idleHourOff(adopted); got != want {
		t.Errorf("adopted machine powered %d of %d computes off, shipped one %d",
			got, len(adopted.Hardware().Computes), want)
	}
}
