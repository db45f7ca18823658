package core

import (
	"slices"
	"strconv"
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

// TestQsubResourceListsAccumulate gives nodes and walltime in two -l
// flags, the usual Torque idiom: the second sets only the walltime.
func TestQsubResourceListsAccumulate(t *testing.T) {
	_, d := torqueDeployment(t)
	if _, err := d.Exec("qsub -l nodes=2:ppn=2 -l walltime=00:30:00 j.sh"); err != nil {
		t.Fatal(err)
	}
	if j, _ := d.Batch.Job(1); j.Cores != 4 || j.Walltime != 30*time.Minute {
		t.Fatalf("%d cores and walltime %v, want 4 and 30m", j.Cores, j.Walltime)
	}
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

// sbatchErrorLines are command lines Exec refuses on a slurm LittleFe.
var sbatchErrorLines = []string{
	"sbatch -n notanumber x.sh",
	"sbatch -t notanumber x.sh",
	"sbatch -n",
	"sbatch -t",
	"sbatch -J",
	"sbatch -u",
	"sbatch --exclusive x.sh",
	"sbatch",
	"sbatch -t 307445734561825861 x.sh", // minutes whose nanoseconds overflow
}

func TestSbatchFlagErrors(t *testing.T) {
	eng := sim.NewEngine()
	d, err := BuildXCBCContext(t.Context(), eng, cluster.NewLittleFe(), Options{Scheduler: "slurm"})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range sbatchErrorLines {
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

// FuzzExec sends arbitrary command lines through Exec on a torque and a
// slurm LittleFe, each built once per fuzz process: Exec never panics,
// and a qsub or sbatch it accepts leaves a job asking for 1 to 10 cores
// (the LittleFe's capacity), a walltime above zero and at most a year, and
// a positive runtime. The seeds include the refusal tables, whose negative
// and overflowing counts and times an earlier Exec defaulted or wrapped.
// Each accepted job is cancelled, so the queue stays short however long
// the fuzzer runs.
func FuzzExec(f *testing.F) {
	for _, line := range slices.Concat(execErrorLines, sbatchErrorLines, []string{
		"qsub -N j -l nodes=1:ppn=2,walltime=01:00:00 -runtime 300 j.sh",
		"qsub -l nodes=1:ppn=1,walltime=02:30:15 j.sh",
		"qsub -N x -l nodes=1:ppn=2,walltime=01:00:00 x.sh",
		"qsub -runtime xyz j.sh", "qsub -l nodes=x:ppn=2 j.sh", "qsub -l nodes=1:ppn=x j.sh",
		"qsub -l walltime=1:2 j.sh", "qsub -l walltime=a:b:c j.sh",
		"sbatch x.sh", "sbatch -n 1 x.sh", "qstat", "squeue", "qdel 1.littlefe-head", "scancel 1",
		"module avail",
		// A walltime and runtime whose end passes the end of the virtual clock.
		"sbatch -t 153722867 -runtime 9223372036 x.sh",
	}) {
		f.Add(line)
	}
	var deps []*Deployment
	for _, scheduler := range []string{"torque", "slurm"} {
		d, err := BuildXCBCContext(f.Context(), sim.NewEngine(), cluster.NewLittleFe(), Options{Scheduler: scheduler})
		if err != nil {
			f.Fatal(err)
		}
		deps = append(deps, d)
	}
	f.Fuzz(func(t *testing.T, line string) {
		for _, d := range deps {
			out, err := d.Exec(line)
			if fields := strings.Fields(line); err != nil || (fields[0] != "qsub" && fields[0] != "sbatch") {
				continue
			}
			idStr, _, _ := strings.Cut(strings.TrimPrefix(out, "Submitted batch job "), ".")
			id, err := strconv.Atoi(idStr)
			if err != nil {
				t.Fatalf("%s: Exec(%q) accepted with output %q", d.Scheduler, line, out)
			}
			j, ok := d.Operations().Job(id)
			if !ok || j.Cores < 1 || j.Cores > 10 || j.Walltime <= 0 || j.Walltime > 365*24*time.Hour || j.Runtime <= 0 {
				t.Fatalf("%s: Exec(%q) accepted job %d: %+v", d.Scheduler, line, id, j)
			}
			if err := d.Operations().CancelJob(id); err != nil {
				t.Fatal(err)
			}
		}
	})
}
