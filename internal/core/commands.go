package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"xcbc/internal/sched"
)

// The command layer realizes the paper's portability claim: "The commands
// used to execute open-source applications on any cluster created with XCBC
// or XNIT are compatible with the way these commands are used on a typical
// cluster supported by XSEDE." Exec accepts the scheduler-native command
// lines users know (qsub/qstat/qdel for Torque and SGE, sbatch/squeue/scancel
// for SLURM) plus the module commands, and dispatches to whatever backend
// the deployment runs.

// ErrUnknownCommand is wrapped in errors for unrecognized commands.
type CommandError struct{ Cmd string }

func (e *CommandError) Error() string {
	return fmt.Sprintf("core: unknown or unavailable command %q", e.Cmd)
}

// commandFamilies maps command name -> scheduler family it belongs to.
var commandFamilies = map[string]string{
	"qsub": "pbs", "qstat": "pbs", "qdel": "pbs",
	"sbatch": "slurm", "squeue": "slurm", "scancel": "slurm",
}

// familyOf returns the command family a deployment's scheduler answers to.
func familyOf(scheduler string) string {
	switch scheduler {
	case "torque", "sge":
		return "pbs" // SGE ships qsub/qstat/qdel work-alikes
	case "slurm":
		return "slurm"
	}
	return ""
}

// Exec runs one command line against the deployment and returns its output.
// Submission flags (a superset small enough for training):
//
//	qsub   [-N name] [-l nodes=X:ppn=Y] [-l walltime=HH:MM:SS] [-u user] script
//	sbatch [-J name] [-n cores] [-t minutes] [-u user] script
//	qstat / squeue
//	qdel <id> / scancel <id>
//	module avail
//
// Every flag takes the next argument as its value. The actual runtime of
// the simulated job defaults to half its walltime; for deterministic
// scenarios append -runtime <seconds>. Job commands go through Operations,
// the adapter REST, the SDK and scenarios use, so they are serialized with
// every other day-2 caller.
func (d *Deployment) Exec(line string) (string, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return "", fmt.Errorf("core: empty command")
	}
	cmd, args := fields[0], fields[1:]
	if fam, isSched := commandFamilies[cmd]; isSched {
		if d.Batch == nil {
			return "", fmt.Errorf("core: no batch system installed; %w", &CommandError{cmd})
		}
		if fam != familyOf(d.Scheduler) {
			return "", fmt.Errorf("core: scheduler is %s; %w", d.Scheduler, &CommandError{cmd})
		}
		switch cmd {
		case "qsub", "sbatch":
			return d.execSubmit(cmd, args)
		case "qstat", "squeue":
			return d.execStatus(), nil
		case "qdel", "scancel":
			return d.execDelete(args)
		}
	}
	if cmd == "module" {
		return d.execModule(args)
	}
	return "", &CommandError{cmd}
}

func (d *Deployment) execSubmit(cmd string, args []string) (string, error) {
	job := &sched.Job{User: "user", Cores: 1}
	var script string
	for i := 0; i < len(args); i++ {
		flag := args[i]
		if !strings.HasPrefix(flag, "-") {
			script = flag
			continue
		}
		if i++; i == len(args) {
			return "", fmt.Errorf("core: %s %s: missing value", cmd, flag)
		}
		if err := setSubmitFlag(job, cmd, flag, args[i]); err != nil {
			return "", err
		}
	}
	if script == "" {
		return "", fmt.Errorf("core: %s: no script given", cmd)
	}
	job.Script = script
	if job.Name == "" {
		job.Name = script
	}
	if err := d.Operations().Submit(job); err != nil {
		return "", err
	}
	if cmd == "sbatch" {
		return fmt.Sprintf("Submitted batch job %d", job.ID), nil
	}
	return fmt.Sprintf("%d.%s", job.ID, d.Cluster.Frontend.Name), nil
}

// setSubmitFlag applies one qsub or sbatch flag and its value to job.
func setSubmitFlag(job *sched.Job, cmd, flag, val string) error {
	var err error
	switch {
	case flag == "-N" || flag == "-J":
		job.Name = val
	case flag == "-u":
		job.User = val
	case flag == "-l" && cmd == "qsub":
		return parsePBSResources(val, job)
	case flag == "-n" && cmd == "sbatch":
		job.Cores, err = strconv.Atoi(val)
	case flag == "-t" && cmd == "sbatch":
		job.Walltime, err = durationOf(val, time.Minute)
	case flag == "-runtime":
		job.Runtime, err = durationOf(val, time.Second)
	default:
		return fmt.Errorf("core: %s: unknown flag %s", cmd, flag)
	}
	if err != nil {
		return fmt.Errorf("core: %s %s: %v", cmd, flag, err)
	}
	return nil
}

// durationOf reads val as a count of units, refusing a negative count or
// one whose duration overflows.
func durationOf(val string, unit time.Duration) (time.Duration, error) {
	n, err := strconv.Atoi(val)
	if err != nil {
		return 0, err
	}
	if n < 0 || n > int(math.MaxInt64/unit) {
		return 0, fmt.Errorf("%d is out of range", n)
	}
	return time.Duration(n) * unit, nil
}

// parsePBSResources handles "-l nodes=2:ppn=2,walltime=01:00:00"; each -l
// sets only the resources it names.
func parsePBSResources(spec string, job *sched.Job) error {
	for _, part := range strings.Split(spec, ",") {
		switch {
		case strings.HasPrefix(part, "nodes="):
			sub := strings.Split(strings.TrimPrefix(part, "nodes="), ":")
			nodes, err := strconv.Atoi(sub[0])
			if err != nil {
				return fmt.Errorf("core: qsub -l nodes: %v", err)
			}
			ppn := 1
			for _, s := range sub[1:] {
				if p, ok := strings.CutPrefix(s, "ppn="); ok {
					if ppn, err = strconv.Atoi(p); err != nil {
						return fmt.Errorf("core: qsub -l ppn: %v", err)
					}
				}
			}
			if nodes < 1 || ppn < 1 || nodes > math.MaxInt/ppn {
				return fmt.Errorf("core: qsub -l nodes=%d:ppn=%d: out of range", nodes, ppn)
			}
			job.Cores = nodes * ppn
		case strings.HasPrefix(part, "walltime="):
			hms := strings.Split(strings.TrimPrefix(part, "walltime="), ":")
			if len(hms) != 3 {
				return fmt.Errorf("core: qsub walltime must be HH:MM:SS")
			}
			var wall time.Duration
			for i, unit := range [3]time.Duration{time.Hour, time.Minute, time.Second} {
				d, err := durationOf(hms[i], unit)
				if err != nil || wall+d < wall {
					return fmt.Errorf("core: qsub walltime must be HH:MM:SS")
				}
				wall += d
			}
			job.Walltime = wall
		default:
			return fmt.Errorf("core: qsub -l: unknown resource %q", part)
		}
	}
	return nil
}

func (d *Deployment) execStatus() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-16s %-10s %-6s %-10s\n", "ID", "NAME", "USER", "CORES", "STATE")
	active := slices.DeleteFunc(d.Operations().Jobs(), func(j JobView) bool {
		return j.State != "queued" && j.State != "running"
	})
	slices.SortFunc(active, func(a, b JobView) int { return cmp.Compare(a.ID, b.ID) })
	for _, j := range active {
		fmt.Fprintf(&b, "%-6d %-16s %-10s %-6d %-10s\n", j.ID, j.Name, j.User, j.Cores, j.State)
	}
	return b.String()
}

func (d *Deployment) execDelete(args []string) (string, error) {
	if len(args) != 1 {
		return "", fmt.Errorf("core: delete needs exactly one job id")
	}
	// Torque ids look like "3.frontend"; accept both forms.
	idStr, _, _ := strings.Cut(args[0], ".")
	id, err := strconv.Atoi(idStr)
	if err != nil {
		return "", fmt.Errorf("core: bad job id %q", args[0])
	}
	if err := d.Operations().CancelJob(id); err != nil {
		return "", err
	}
	return fmt.Sprintf("job %d deleted", id), nil
}

func (d *Deployment) execModule(args []string) (string, error) {
	if len(args) == 0 {
		return "", fmt.Errorf("core: module: missing subcommand")
	}
	switch args[0] {
	case "avail":
		return strings.Join(d.Modules.Avail(), "\n") + "\n", nil
	default:
		return "", fmt.Errorf("core: module: unsupported subcommand %q (sessions handle load/unload)", args[0])
	}
}
