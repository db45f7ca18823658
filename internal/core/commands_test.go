package core

import (
	"strings"
	"testing"
	"time"

	"xcbc/internal/cluster"
	"xcbc/internal/sched"
	"xcbc/internal/sim"
)

func torqueDeployment(t *testing.T) (*sim.Engine, *Deployment) {
	t.Helper()
	eng := sim.NewEngine()
	d, err := BuildXCBCContext(t.Context(), eng, cluster.NewLittleFe(), Options{Scheduler: "torque"})
	if err != nil {
		t.Fatal(err)
	}
	return eng, d
}

func TestQsubRuntimeFlag(t *testing.T) {
	eng, d := torqueDeployment(t)
	if _, err := d.Exec("qsub -N j -l nodes=1:ppn=2,walltime=01:00:00 -runtime 300 j.sh"); err != nil {
		t.Fatal(err)
	}
	j, _ := d.Batch.Job(1)
	if j.Runtime != 5*time.Minute {
		t.Fatalf("runtime = %v", j.Runtime)
	}
	eng.Run()
	if j.Turnaround() != 5*time.Minute {
		t.Fatalf("turnaround = %v", j.Turnaround())
	}
}

func TestQsubWalltimeParsing(t *testing.T) {
	eng, d := torqueDeployment(t)
	if _, err := d.Exec("qsub -l nodes=1:ppn=1,walltime=02:30:15 j.sh"); err != nil {
		t.Fatal(err)
	}
	j, _ := d.Batch.Job(1)
	want := 2*time.Hour + 30*time.Minute + 15*time.Second
	if j.Walltime != want {
		t.Fatalf("walltime = %v, want %v", j.Walltime, want)
	}
	if j.Cores != 1 {
		t.Fatalf("cores = %d", j.Cores)
	}
	eng.Run()
}

func TestQdelAcceptsFullJobID(t *testing.T) {
	eng, d := torqueDeployment(t)
	out, err := d.Exec("qsub -N x -l nodes=1:ppn=2,walltime=01:00:00 x.sh")
	if err != nil {
		t.Fatal(err)
	}
	// out is "1.littlefe-head" — qdel must accept the full form.
	if _, err := d.Exec("qdel " + strings.TrimSpace(out)); err != nil {
		t.Fatal(err)
	}
	j, _ := d.Batch.Job(1)
	if j.State != sched.StateCancelled {
		t.Fatalf("state = %v", j.State)
	}
	eng.Run()
}

func TestSbatchFlagErrors(t *testing.T) {
	eng := sim.NewEngine()
	d, err := BuildXCBCContext(t.Context(), eng, cluster.NewLittleFe(), Options{Scheduler: "slurm"})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		"sbatch -n notanumber x.sh",
		"sbatch -t notanumber x.sh",
		"sbatch -J",
		"sbatch -u",
		"sbatch --exclusive x.sh",
		"sbatch",
	} {
		if _, err := d.Exec(bad); err == nil {
			t.Errorf("Exec(%q) should fail", bad)
		}
	}
	// Defaults: 1 core, 1h walltime when -n/-t omitted.
	if _, err := d.Exec("sbatch x.sh"); err != nil {
		t.Fatal(err)
	}
	j, _ := d.Batch.Job(1)
	if j.Cores != 1 || j.Walltime != time.Hour {
		t.Fatalf("defaults: %d cores, %v", j.Cores, j.Walltime)
	}
	eng.Run()
}

func TestQsubRuntimeBadValue(t *testing.T) {
	_, d := torqueDeployment(t)
	if _, err := d.Exec("qsub -runtime xyz j.sh"); err == nil {
		t.Fatal("bad -runtime should fail")
	}
	if _, err := d.Exec("qsub -l nodes=x:ppn=2 j.sh"); err == nil {
		t.Fatal("bad nodes should fail")
	}
	if _, err := d.Exec("qsub -l nodes=1:ppn=x j.sh"); err == nil {
		t.Fatal("bad ppn should fail")
	}
	if _, err := d.Exec("qsub -l walltime=1:2 j.sh"); err == nil {
		t.Fatal("short walltime should fail")
	}
	if _, err := d.Exec("qsub -l walltime=a:b:c j.sh"); err == nil {
		t.Fatal("non-numeric walltime should fail")
	}
}

func TestCommandErrorType(t *testing.T) {
	_, d := torqueDeployment(t)
	_, err := d.Exec("sbatch -n 1 x.sh")
	if err == nil || !strings.Contains(err.Error(), "sbatch") {
		t.Fatalf("err = %v", err)
	}
	ce := &CommandError{Cmd: "frobnicate"}
	if !strings.Contains(ce.Error(), "frobnicate") {
		t.Fatal("CommandError text")
	}
}

func TestVendorDeploymentWithoutBatchRejectsJobCommands(t *testing.T) {
	eng := sim.NewEngine()
	c := cluster.NewLimulusHPC200()
	c.PowerOnAll()
	d, err := NewVendorDeployment(eng, c, "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec("qsub x.sh"); err == nil {
		t.Fatal("no batch system: qsub should fail")
	}
	if _, err := d.Exec("qstat"); err == nil {
		t.Fatal("no batch system: qstat should fail")
	}
}
