package xcbc

// The benchmark harness regenerates every table and figure in the paper's
// evaluation (run with `go test -bench=. -benchmem`). Custom metrics carry
// the reproduced quantities so bench output doubles as the experiment
// record:
//
//	Table 1/2  -> catalog/table generation          (BenchmarkTable1..2)
//	Table 3    -> deployed-cluster inventory        (BenchmarkTable3...)
//	Table 4    -> luggable cluster characteristics  (BenchmarkTable4...)
//	Table 5    -> Rpeak/Rmax/price-performance      (BenchmarkTable5...)
//	Fig 1-3    -> ASCII chassis renders             (BenchmarkFigure...)
//	§3         -> XCBC vs XNIT build paths, update policies
//	§5.1/5.2   -> CPU ablation, power management
//	§2/§6      -> scheduler portability

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"xcbc/bench/work"
	"xcbc/internal/cluster"
	"xcbc/internal/core"
	"xcbc/internal/depsolve"
	"xcbc/internal/gridftp"
	"xcbc/internal/hpl"
	"xcbc/internal/mpi"
	"xcbc/internal/power"
	"xcbc/internal/provision"
	"xcbc/internal/repo"
	"xcbc/internal/report"
	"xcbc/internal/rpm"
	"xcbc/internal/sched"
	"xcbc/internal/sim"
	"xcbc/internal/verify"
	"xcbc/internal/workload"
	sdk "xcbc/pkg/xcbc"
	"xcbc/pkg/xcbc/api"
)

// BenchmarkTable1XCBCBuild regenerates Table 1 (XCBC build part 1).
func BenchmarkTable1XCBCBuild(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = report.Table1()
	}
	b.ReportMetric(float64(len(core.Table1())), "rows")
	_ = out
}

// BenchmarkTable2CompatSet regenerates Table 2 (XSEDE run-alike packages).
func BenchmarkTable2CompatSet(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = report.Table2()
	}
	n := 0
	for _, row := range core.Table2() {
		n += len(row.Packages)
	}
	b.ReportMetric(float64(n), "packages")
	_ = out
}

// BenchmarkTable3DeployedClusters rebuilds every Table 3 site cluster and
// reports the aggregate Rpeak (paper: 49.61 TF).
func BenchmarkTable3DeployedClusters(b *testing.B) {
	var totalTF float64
	for i := 0; i < b.N; i++ {
		totalTF = 0
		for _, row := range report.Table3Rows() {
			totalTF += row.TFlops
		}
	}
	b.ReportMetric(totalTF, "total_TF")
}

// BenchmarkTable4Characteristics regenerates Table 4.
func BenchmarkTable4Characteristics(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = report.Table4()
	}
	_ = out
}

// BenchmarkTable5PricePerformance runs the calibrated HPL model for both
// luggable clusters (paper: LittleFe 537.6/403.2* GF at $7/$9 per GFLOPS;
// Limulus 793.6/498.3 GF at $8/$12).
func BenchmarkTable5PricePerformance(b *testing.B) {
	var rows []report.Table5Row
	for i := 0; i < b.N; i++ {
		rows = report.Table5Rows()
	}
	b.ReportMetric(rows[0].RmaxGF, "littlefe_rmax_GF")
	b.ReportMetric(rows[1].RmaxGF, "limulus_rmax_GF")
	b.ReportMetric(rows[0].DollarPerGFPeak, "littlefe_$/GF_peak")
	b.ReportMetric(rows[1].DollarPerGFPeak, "limulus_$/GF_peak")
}

// BenchmarkFigure1LittleFeRear renders the Figure 1 substitute.
func BenchmarkFigure1LittleFeRear(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := report.Figure(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2LittleFeFront renders the Figure 2 substitute.
func BenchmarkFigure2LittleFeFront(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := report.Figure(2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3LimulusInternals renders the Figure 3 substitute.
func BenchmarkFigure3LimulusInternals(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := report.Figure(3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkXCBCFromScratch measures the complete §3 from-scratch build on
// the modified LittleFe and reports the simulated install duration.
func BenchmarkXCBCFromScratch(b *testing.B) {
	var d *core.Deployment
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		var err error
		d, err = core.BuildXCBCContext(b.Context(), eng, cluster.NewLittleFe(), core.Options{Scheduler: "torque"})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(d.InstallDuration.Seconds(), "sim_install_s")
	b.ReportMetric(float64(d.PackagesInstalled), "packages")
}

// BenchmarkXNITAdoption measures the §3 incremental path: converting a
// running diskless Limulus with the XNIT repository.
func BenchmarkXNITAdoption(b *testing.B) {
	var simSecs float64
	var installs int
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		c := cluster.NewLimulusHPC200()
		base := []*rpm.Package{rpm.NewPackage("kernel", "2.6.32-431.el6.sl", rpm.ArchX86_64).Build()}
		if err := provision.VendorProvision(eng, c, "Scientific Linux 6.5", base); err != nil {
			b.Fatal(err)
		}
		d, err := core.NewVendorDeployment(eng, c, "", core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		xnit, err := core.NewXNITRepository()
		if err != nil {
			b.Fatal(err)
		}
		core.ConfigureXNIT(d, xnit)
		start := eng.Now()
		n1, err := d.InstallProfile("compilers")
		if err != nil {
			b.Fatal(err)
		}
		n2, err := d.InstallProfile("chemistry")
		if err != nil {
			b.Fatal(err)
		}
		if err := d.ChangeScheduler("torque"); err != nil {
			b.Fatal(err)
		}
		simSecs = (eng.Now() - start).Duration().Seconds()
		installs = n1 + n2
	}
	b.ReportMetric(simSecs, "sim_install_s")
	b.ReportMetric(float64(installs), "packages")
}

// BenchmarkUpdateCheck measures the §3 periodic update check across a
// converted cluster after the repository publishes updates.
func BenchmarkUpdateCheck(b *testing.B) {
	eng := sim.NewEngine()
	d, err := core.BuildXCBCContext(b.Context(), eng, cluster.NewLittleFe(), core.Options{Scheduler: "torque"})
	if err != nil {
		b.Fatal(err)
	}
	xnit, err := core.NewXNITRepository()
	if err != nil {
		b.Fatal(err)
	}
	core.ConfigureXNIT(d, xnit)
	if err := xnit.Publish(
		rpm.NewPackage("gcc", "4.4.7-17.el6", rpm.ArchX86_64).
			Requires(rpm.Cap("glibc"), rpm.Cap("gmp"), rpm.Cap("mpfr")).Build(),
		rpm.NewPackage("R", "3.1.2-1.el6", rpm.ArchX86_64).Requires(rpm.Cap("R-core")).Build(),
	); err != nil {
		b.Fatal(err)
	}
	when := time.Date(2015, 3, 1, 6, 0, 0, 0, time.UTC)
	var pending int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		notes := d.RunUpdateCheckEverywhere(depsolve.PolicyNotify, when)
		pending = 0
		for _, n := range notes {
			pending += len(n.Pending)
		}
	}
	b.ReportMetric(float64(pending), "updates_pending")
}

// BenchmarkLittleFeCPUAblation reproduces §5.1's design trade: the Atom
// D510 original versus the Celeron G1840 modification, in modelled Rmax and
// CPU power (paper: 10.56 W vs 43.06 W per CPU).
func BenchmarkLittleFeCPUAblation(b *testing.B) {
	var atomRmax, celeronRmax float64
	for i := 0; i < b.N; i++ {
		orig := cluster.NewLittleFeOriginal()
		mod := cluster.NewLittleFe()
		atomRmax = hpl.Model(orig, hpl.ProblemSize(orig, 0.8), hpl.ModelParams{}).RmaxGF
		celeronRmax = hpl.Model(mod, hpl.ProblemSize(mod, 0.8), hpl.ModelParams{}).RmaxGF
	}
	b.ReportMetric(atomRmax, "atom_rmax_GF")
	b.ReportMetric(celeronRmax, "celeron_rmax_GF")
	b.ReportMetric(cluster.AtomD510.Watts, "atom_W")
	b.ReportMetric(cluster.CeleronG1840.Watts, "celeron_W")
}

// BenchmarkPowerManagement reproduces §5.2's Limulus power management:
// energy for an 8-hour day with a 10-minute burst workload, always-on vs
// on-demand.
func BenchmarkPowerManagement(b *testing.B) {
	run := func(policy power.Policy) float64 {
		eng := sim.NewEngine()
		c := cluster.NewLimulusHPC200()
		c.PowerOnAll()
		batch := sched.NewManager(eng, c, sched.TorqueMaui{})
		pm := power.NewManager(eng, c, batch, policy)
		pm.IdleGrace = 5 * time.Minute
		if _, err := batch.Submit(&sched.Job{
			Name: "burst", User: "u", Cores: 12,
			Walltime: time.Hour, Runtime: 10 * time.Minute,
		}); err != nil {
			b.Fatal(err)
		}
		eng.Run()
		eng.RunUntil(sim.Time(8 * time.Hour))
		return pm.Finalize()
	}
	var alwaysOn, onDemand float64
	for i := 0; i < b.N; i++ {
		alwaysOn = run(power.AlwaysOn)
		onDemand = run(power.OnDemand)
	}
	b.ReportMetric(alwaysOn, "always_on_Wh")
	b.ReportMetric(onDemand, "on_demand_Wh")
	b.ReportMetric(100*(1-onDemand/alwaysOn), "saving_pct")
}

// BenchmarkSchedulerPortability runs the same workload through all three
// Table 1 schedulers via the portable command layer (§2's compatibility
// claim), reporting mean job turnaround per scheduler.
func BenchmarkSchedulerPortability(b *testing.B) {
	for _, schName := range core.Schedulers {
		b.Run(schName, func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				eng := sim.NewEngine()
				d, err := core.BuildXCBCContext(b.Context(), eng, cluster.NewLittleFe(), core.Options{Scheduler: schName})
				if err != nil {
					b.Fatal(err)
				}
				cmds := []string{
					"qsub -N a -l nodes=2:ppn=2,walltime=01:00:00 -u alice a.sh",
					"qsub -N b -l nodes=1:ppn=2,walltime=00:30:00 -u bob b.sh",
					"qsub -N c -l nodes=5:ppn=2,walltime=02:00:00 -u carol c.sh",
				}
				if schName == "slurm" {
					cmds = []string{
						"sbatch -J a -n 4 -t 60 -u alice a.sh",
						"sbatch -J b -n 2 -t 30 -u bob b.sh",
						"sbatch -J c -n 10 -t 120 -u carol c.sh",
					}
				}
				for _, cmd := range cmds {
					if _, err := d.Exec(cmd); err != nil {
						b.Fatal(err)
					}
				}
				eng.Run()
				total := 0.0
				for _, j := range d.Batch.History() {
					total += j.Turnaround().Seconds()
				}
				mean = total / float64(len(d.Batch.History()))
			}
			b.ReportMetric(mean, "mean_turnaround_s")
		})
	}
}

// BenchmarkHPLKernel measures the real LU factorization at several sizes
// (actual host GFLOPS; validates with the HPL residual).
func BenchmarkHPLKernel(b *testing.B) {
	for _, n := range []int{128, 256, 512} {
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			var gflops float64
			for i := 0; i < b.N; i++ {
				res, err := hpl.Run(n, 64, 4, 42)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Pass {
					b.Fatalf("residual check failed: %v", res)
				}
				gflops = res.GFLOPS
			}
			b.ReportMetric(gflops, "host_GFLOPS")
		})
	}
}

// BenchmarkHPLWorkerScaling shows the parallel trailing-update scaling of
// the LU kernel across worker counts.
func BenchmarkHPLWorkerScaling(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a, _ := hpl.RandomSystem(384, 42)
				if _, err := hpl.Factor(a, 64, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDepsolveGromacsClosure measures dependency resolution for the
// deepest closure in the catalog.
func BenchmarkDepsolveGromacsClosure(b *testing.B) {
	xnit, err := core.NewXNITRepository()
	if err != nil {
		b.Fatal(err)
	}
	set := repo.NewSet(repo.Config{Repo: xnit, Priority: core.XNITPriority, Enabled: true})
	b.ResetTimer()
	var txLen int
	for i := 0; i < b.N; i++ {
		res := depsolve.New(set, rpm.NewDB())
		tx, err := res.Install("gromacs", "trinity", "octave", "R-devel")
		if err != nil {
			b.Fatal(err)
		}
		txLen = tx.Len()
	}
	b.ReportMetric(float64(txLen), "tx_elements")
}

// BenchmarkDepsolveCold measures dependency resolution including catalog
// publication and index construction: the price of the first request
// against a freshly configured repository.
func BenchmarkDepsolveCold(b *testing.B) {
	var txLen int
	for i := 0; i < b.N; i++ {
		xnit, err := core.NewXNITRepository()
		if err != nil {
			b.Fatal(err)
		}
		set := repo.NewSet(repo.Config{Repo: xnit, Priority: core.XNITPriority, Enabled: true})
		tx, err := depsolve.New(set, rpm.NewDB()).Install("gromacs", "trinity", "octave", "R-devel")
		if err != nil {
			b.Fatal(err)
		}
		txLen = tx.Len()
	}
	b.ReportMetric(float64(txLen), "tx_elements")
}

// BenchmarkWhoProvidesIndexed measures capability lookups against the
// repository's provider index: the virtual capability ("mpi") and the
// self-provide paths.
func BenchmarkWhoProvidesIndexed(b *testing.B) {
	xnit, err := core.NewXNITRepository()
	if err != nil {
		b.Fatal(err)
	}
	reqs := []rpm.Capability{
		rpm.Cap("mpi"),
		rpm.Cap("gromacs"),
		rpm.CapVer("gcc", rpm.GE, "4.4"),
		rpm.Cap("no-such-capability"),
	}
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		for _, req := range reqs {
			n += len(xnit.WhoProvides(req))
		}
	}
	b.ReportMetric(float64(n)/float64(b.N), "providers_per_round")
}

// BenchmarkAPIDepsolve measures the whole HTTP hot path: a POST
// /api/v1/depsolve round trip against a warm control-plane server,
// including JSON codec work on both sides.
func BenchmarkAPIDepsolve(b *testing.B) {
	xnit, err := core.NewXNITRepository()
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(api.New(api.Config{Repos: []*repo.Repository{xnit}}).Handler())
	defer srv.Close()
	body, err := json.Marshal(map[string]any{"install": []string{"gromacs", "octave"}})
	if err != nil {
		b.Fatal(err)
	}
	client := srv.Client()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := client.Post(srv.URL+"/api/v1/depsolve", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var resp struct {
			Count int `json:"count"`
		}
		if err := json.NewDecoder(res.Body).Decode(&resp); err != nil {
			b.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusOK || resp.Count == 0 {
			b.Fatalf("depsolve: status %d, count %d", res.StatusCode, resp.Count)
		}
	}
}

// BenchmarkVercmp measures the RPM version comparator on the reference
// corpus.
func BenchmarkVercmp(b *testing.B) {
	pairs := [][2]string{
		{"1.0~rc1", "1.0"}, {"2.6.32-431.el6", "2.6.32-504.el6"},
		{"10.0001", "10.0039"}, {"1.0^git1", "1.01"}, {"4.999.9", "5.0"},
	}
	for i := 0; i < b.N; i++ {
		for _, p := range pairs {
			rpm.Vercmp(p[0], p[1])
		}
	}
}

// BenchmarkMPIAllreduce measures the message-passing runtime's allreduce
// across 16 ranks (one per Limulus core).
func BenchmarkMPIAllreduce(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w, err := mpi.NewWorld(16, cluster.GigabitEthernet)
		if err != nil {
			b.Fatal(err)
		}
		err = w.Run(func(c *mpi.Comm) error {
			buf := []float64{float64(c.Rank())}
			return c.Allreduce(buf, mpi.OpSum)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBackfillAblation quantifies what Maui adds over plain
// FIFO Torque (an XCBC design choice DESIGN.md calls out): the same
// 60-job trace, backfill on vs off.
func BenchmarkBackfillAblation(b *testing.B) {
	run := func(p sched.Policy) workload.Stats {
		c := cluster.NewLittleFe()
		c.PowerOnAll()
		eng := sim.NewEngine()
		m := sched.NewManager(eng, c, p)
		workload.Replay(eng, m, workload.Generate(workload.Spec{
			Seed: 11, Jobs: 60, CoresMax: 10, MeanInterarrival: 2 * time.Minute,
		}))
		eng.Run()
		return workload.Collect(m)
	}
	var with, without workload.Stats
	for i := 0; i < b.N; i++ {
		with = run(sched.TorqueMaui{})
		without = run(sched.PlainFIFO{})
	}
	b.ReportMetric(with.MeanWait.Seconds(), "maui_mean_wait_s")
	b.ReportMetric(without.MeanWait.Seconds(), "fifo_mean_wait_s")
	b.ReportMetric(with.Makespan.Seconds(), "maui_makespan_s")
	b.ReportMetric(without.Makespan.Seconds(), "fifo_makespan_s")
}

// BenchmarkSchedulerWorkloadComparison runs an identical 80-job trace
// through all three Table 1 schedulers and reports mean waits — the
// quantitative version of the "choose one" guidance.
func BenchmarkSchedulerWorkloadComparison(b *testing.B) {
	for _, name := range core.Schedulers {
		b.Run(name, func(b *testing.B) {
			var st workload.Stats
			for i := 0; i < b.N; i++ {
				c := cluster.NewLittleFe()
				c.PowerOnAll()
				eng := sim.NewEngine()
				policy, _ := sched.PolicyByName(name)
				m := sched.NewManager(eng, c, policy)
				workload.Replay(eng, m, workload.Generate(workload.Spec{
					Seed: 23, Jobs: 80, CoresMax: 10, MeanInterarrival: 3 * time.Minute,
				}))
				eng.Run()
				st = workload.Collect(m)
			}
			b.ReportMetric(st.MeanWait.Seconds(), "mean_wait_s")
			b.ReportMetric(st.P95Wait.Seconds(), "p95_wait_s")
			b.ReportMetric(100*st.Utilization, "util_pct")
		})
	}
}

// BenchmarkNetworkAblation sweeps the interconnect under the HPL model on
// Limulus hardware: the GigE both machines ship with versus upgrades, the
// efficiency knob the paper's deskside price points implicitly trade away.
func BenchmarkNetworkAblation(b *testing.B) {
	nets := []cluster.Network{cluster.GigabitEthernet, cluster.TenGigEthernet, cluster.InfinibandQDR}
	for _, net := range nets {
		b.Run(net.Type, func(b *testing.B) {
			var eff float64
			for i := 0; i < b.N; i++ {
				c := cluster.NewLimulusHPC200()
				c.Network = net
				eff = hpl.Model(c, hpl.ProblemSize(c, 0.8), hpl.ModelParams{}).Efficiency
			}
			b.ReportMetric(100*eff, "hpl_eff_pct")
		})
	}
}

// BenchmarkHPLBlockSize sweeps the LU block size on a real solve; the
// interior block sizes should dominate the degenerate ones.
func BenchmarkHPLBlockSize(b *testing.B) {
	for _, nb := range []int{8, 32, 64, 128} {
		b.Run(fmt.Sprintf("NB%d", nb), func(b *testing.B) {
			var gflops float64
			for i := 0; i < b.N; i++ {
				res, err := hpl.Run(384, nb, 4, 42)
				if err != nil {
					b.Fatal(err)
				}
				gflops = res.GFLOPS
			}
			b.ReportMetric(gflops, "host_GFLOPS")
		})
	}
}

// BenchmarkGridFTPStaging measures the campus-bridging data path: staging
// 2.5 GB from a campus 1 Gbit endpoint to a 10 Gbit national endpoint.
func BenchmarkGridFTPStaging(b *testing.B) {
	var dur time.Duration
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		svc := gridftp.NewService(eng)
		campus := gridftp.NewEndpoint("littlefe#data", 1)
		national := gridftp.NewEndpoint("hyalite#scratch", 10)
		campus.Put("/data/traj.trr", 2.5e9)
		x, err := svc.Submit(campus, "/data/traj.trr", national, "/scratch/traj.trr")
		if err != nil {
			b.Fatal(err)
		}
		eng.Run()
		if !x.Verified {
			b.Fatalf("transfer failed after %d retries", x.Retries)
		}
		dur = x.Duration()
	}
	b.ReportMetric(dur.Seconds(), "sim_transfer_s")
}

// BenchmarkClusterVerify sweeps the health checker over a full XCBC
// LittleFe (the maintenance workflow of §3/§4).
func BenchmarkClusterVerify(b *testing.B) {
	eng := sim.NewEngine()
	d, err := core.BuildXCBCContext(b.Context(), eng, cluster.NewLittleFe(), core.Options{Scheduler: "torque"})
	if err != nil {
		b.Fatal(err)
	}
	chk := &verify.Checker{
		Cluster:          d.Cluster,
		DB:               d.Installer.DB,
		ComputeServices:  []string{"pbs_mom", "gmond"},
		FrontendServices: []string{"pbs_server", "maui", "gmetad"},
	}
	b.ResetTimer()
	var healthy bool
	for i := 0; i < b.N; i++ {
		healthy = chk.Run().Healthy()
	}
	if !healthy {
		b.Fatal("fresh build should verify healthy")
	}
}

// BenchmarkNodeFailureRecovery measures failure handling: a node dies under
// a full-machine job; the job requeues and completes after repair.
func BenchmarkNodeFailureRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := cluster.NewLittleFe()
		c.PowerOnAll()
		eng := sim.NewEngine()
		m := sched.NewManager(eng, c, sched.TorqueMaui{})
		id, err := m.Submit(&sched.Job{Name: "j", User: "u", Cores: 10,
			Walltime: time.Hour, Runtime: 30 * time.Minute})
		if err != nil {
			b.Fatal(err)
		}
		if err := m.NodeFail("compute-0-2"); err != nil {
			b.Fatal(err)
		}
		if err := m.NodeRepair("compute-0-2"); err != nil {
			b.Fatal(err)
		}
		eng.Run()
		j, _ := m.Job(id)
		if j.State != sched.StateCompleted {
			b.Fatalf("job state = %v", j.State)
		}
	}
}

// BenchmarkScalingCurveModel computes the extension scaling curve: a
// LittleFe-class machine grown to 16 nodes on GigE.
func BenchmarkScalingCurveModel(b *testing.B) {
	var points []hpl.ScalingPoint
	for i := 0; i < b.N; i++ {
		points = hpl.ScalingCurve(cluster.CeleronG1840, 8, 16, cluster.GigabitEthernet, hpl.ModelParams{})
	}
	b.ReportMetric(100*points[len(points)-1].Efficiency, "eff_at_16_nodes_pct")
}

// BenchmarkSimEngine measures raw discrete-event throughput (events/op).
func BenchmarkSimEngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		var tick func(*sim.Engine)
		count := 0
		tick = func(e *sim.Engine) {
			count++
			if count < 10000 {
				e.After(time.Second, "tick", tick)
			}
		}
		eng.After(time.Second, "tick", tick)
		eng.Run()
	}
}

// benchmarkBuildXCBC builds the benchmark cluster (the catalog LittleFe
// grown to 32 compute nodes so wave width 8 has four full waves) at the
// given wave width, reporting both wall-clock and the simulated install
// duration the wave cost model produces.
func benchmarkBuildXCBC(b *testing.B, parallelism int) {
	var simDur time.Duration
	for i := 0; i < b.N; i++ {
		d, err := sdk.NewXCBC(
			sdk.WithCluster("littlefe"),
			sdk.WithNodeCount(32),
			sdk.WithParallelism(parallelism),
		).Deploy(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		simDur = d.InstallDuration()
	}
	b.ReportMetric(simDur.Seconds(), "sim_install_s")
}

// BenchmarkBuildXCBCSequential is the seed behavior: one kickstart at a
// time, install time the sum over nodes.
func BenchmarkBuildXCBCSequential(b *testing.B) { benchmarkBuildXCBC(b, 1) }

// BenchmarkBuildXCBCWave8 overlaps eight kickstarts per wave, the paper's
// frontend-bounded parallel build; simulated install duration is the max
// per wave instead of the sum.
func BenchmarkBuildXCBCWave8(b *testing.B) { benchmarkBuildXCBC(b, 8) }

// BenchmarkFleetProvision100 provisions the campus-100 fleet shape — 100
// littlefe clusters, 4 computes each, wave width 4, 8 concurrent builds —
// to fully ready. This is the wall-clock cost of the scenario engine's
// heaviest built-in phase, and the scale baseline future fleet PRs must
// not regress.
func BenchmarkFleetProvision100(b *testing.B) { benchmarkFleetProvision(b, 100) }

// benchmarkFleetProvision provisions a fleet of the given size to fully
// ready and reports the heap growth the fleet's live state costs per
// member, twice: bytes_per_cluster as deployed, and
// bytes_per_cluster_polled after every member has answered one metrics
// poll, which is when a cluster's monitoring series come into being. The
// second figure is what bounds how many simulated clusters one
// control-plane process can hold once anything looks at them.
func benchmarkFleetProvision(b *testing.B, members int) {
	var ready int
	var perCluster, perClusterPolled float64
	heapAlloc := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for i := 0; i < b.N; i++ {
		// The forced-GC + ReadMemStats brackets measure retained memory;
		// they scan a live heap proportional to fleet size, so they (and
		// the metrics round) run outside the timer — only the provisioning
		// work itself is timed (including any GC its own allocation
		// triggers).
		b.StopTimer()
		before := heapAlloc()
		b.StartTimer()
		f, err := sdk.NewFleet(sdk.FleetSpec{
			Name: "bench", Members: members, Cluster: "littlefe", Nodes: 4,
			Parallelism: 4, Workers: 8,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := f.Deploy(context.Background()); err != nil {
			b.Fatal(err)
		}
		ready = f.Status().Ready
		b.StopTimer()
		perCluster = float64(heapAlloc()-before) / float64(members)
		for _, m := range f.Members() {
			cl, err := m.Cluster()
			if err != nil {
				b.Fatal(err)
			}
			cl.Metrics()
		}
		perClusterPolled = float64(heapAlloc()-before) / float64(members)
		runtime.KeepAlive(f)
		b.StartTimer()
	}
	if ready != members {
		b.Fatalf("ready = %d, want %d", ready, members)
	}
	b.ReportMetric(float64(ready), "clusters_ready")
	b.ReportMetric(perCluster, "bytes_per_cluster")
	b.ReportMetric(perClusterPolled, "bytes_per_cluster_polled")
}

// BenchmarkFleetNew100 constructs the campus-100 fleet and builds nothing:
// the part of POST /api/v1/fleets that runs synchronously in the request,
// which is the catalog machine built and resized once and cloned per
// member.
func BenchmarkFleetNew100(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := sdk.NewFleet(sdk.FleetSpec{
			Name: "bench", Members: 100, Cluster: "littlefe", Nodes: 4,
			Parallelism: 4, Workers: 8,
		})
		if err != nil || f.Len() != 100 {
			b.Fatalf("NewFleet = %v, %v", f, err)
		}
	}
}

// BenchmarkFleetProvision1000 is the campus-100 shape scaled 10x: the
// scaling criterion is wall-clock within ~10x of the 100-cluster run, i.e.
// per-cluster cost stays flat as the fleet grows.
func BenchmarkFleetProvision1000(b *testing.B) { benchmarkFleetProvision(b, 1000) }

// BenchmarkFleetProvision10000 drives the simulator core to a 10k-member
// fleet in one process — the target scale for this control plane — and
// records the retained memory per simulated cluster.
func BenchmarkFleetProvision10000(b *testing.B) { benchmarkFleetProvision(b, 10000) }

// BenchmarkScenarioChaosKickstart runs the chaos-kickstart built-in end to
// end: seeded kickstart faults, provisioning with retries, a job flood,
// cancellations, and invariant checks across 32 clusters.
func BenchmarkScenarioChaosKickstart(b *testing.B) {
	var events int
	for i := 0; i < b.N; i++ {
		sc, err := sdk.BuiltinScenario("chaos-kickstart")
		if err != nil {
			b.Fatal(err)
		}
		res, err := sdk.RunScenario(context.Background(), sc)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Passed() {
			b.Fatalf("violations: %v", res.Violations())
		}
		events = len(res.Trace())
	}
	b.ReportMetric(float64(events), "trace_events")
}

// BenchmarkRecoverFleet100 measures cold recovery of a durable control
// plane whose WAL holds a provisioned 100-member fleet (the campus-100
// shape). Setup journals the fleet once; each iteration is a full
// api.Open — WAL read, mirror rebuild — then a fleet list, which
// re-provisions the fleet, all 100 clusters, on this first use, and Close.
func BenchmarkRecoverFleet100(b *testing.B) {
	dir := b.TempDir()
	seedSrv, _, err := api.Open(api.Config{DataDir: dir})
	if err != nil {
		b.Fatal(err)
	}
	h := httptest.NewServer(seedSrv.Handler())
	resp, err := http.Post(h.URL+"/api/v1/fleets", "application/json",
		bytes.NewReader([]byte(`{"name":"bench","members":100,"cluster":"littlefe","nodes":4,"parallelism":4,"workers":8}`)))
	if err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b.Fatalf("create fleet: %d", resp.StatusCode)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		var info struct {
			Settled bool `json:"settled"`
			Status  struct {
				Ready int `json:"ready"`
			} `json:"status"`
		}
		r, err := http.Get(h.URL + "/api/v1/fleets/f1")
		if err != nil {
			b.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&info); err != nil {
			b.Fatal(err)
		}
		r.Body.Close()
		if info.Settled {
			if info.Status.Ready != 100 {
				b.Fatalf("seed fleet ready = %d, want 100", info.Status.Ready)
			}
			break
		}
		if time.Now().After(deadline) {
			b.Fatal("seed fleet never settled")
		}
		time.Sleep(5 * time.Millisecond)
	}
	h.Close()
	if err := seedSrv.Close(); err != nil {
		b.Fatal(err)
	}
	var walBytes int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range entries {
		if fi, err := e.Info(); err == nil {
			walBytes += fi.Size()
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, rep, err := api.Open(api.Config{DataDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Fleets != 1 {
			b.Fatalf("recovered %d fleets, want 1", rep.Fleets)
		}
		b.ReportMetric(float64(rep.Records), "wal_records")
		handlerCall(b, s.Handler())("GET", "/api/v1/fleets", "", http.StatusOK)
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(walBytes), "wal_disk_bytes")
}

// handlerCall returns a function that serves one request through h in
// process and fails the benchmark unless it answers want; it returns the
// body.
func handlerCall(b *testing.B, h http.Handler) func(method, path, body string, want int) []byte {
	return func(method, path, body string, want int) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader([]byte(body))))
		if rec.Code != want {
			b.Fatalf("%s %s = %d, want %d: %s", method, path, rec.Code, want, rec.Body.Bytes())
		}
		return rec.Body.Bytes()
	}
}

// awaitBody polls GET path every millisecond until the body contains
// settled, and returns that body.
func awaitBody(b testing.TB, call func(method, path, body string, want int) []byte, path, settled string) []byte {
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(time.Millisecond) {
		if body := call("GET", path, "", http.StatusOK); bytes.Contains(body, []byte(settled)) {
			return body
		}
		if time.Now().After(deadline) {
			b.Fatalf("%s never reported %s", path, settled)
		}
	}
}

// BenchmarkRecoverStanding64 measures recovery of bench/'s crash_recover
// population, in process: 64 ready deployments with a job each and a
// settled 20-member fleet with one rolling-update run, built once and
// snapshotted whole. An iteration of /listed is api.Open, a list of every
// deployment and fleet through the handler, and Close — snapshot decode,
// 64 rows rendered from their journaled summaries with no deployment
// built, the fleet's run restored, and the fleet re-provisioned on first
// use by the fleet list, which waits for it, so allocs/op counts the same
// work every iteration. /touched is /listed plus GET
// /api/v1/clusters/d1/jobs before Close: one deployment built on demand
// and its op replayed. /first is api.Open up to the first /healthz body,
// the part a restart waits for (Close is not timed). snapshot-bytes is what
// one recovery reads from disk. /history is /first on the same population
// with 16 jobs per deployment, the op-log weight crash_recover's
// deployments reach late in a run: Open only scans each op log, so it
// allocates what /first does, and a deployment's first use parses its own.
func BenchmarkRecoverStanding64(b *testing.B) {
	const standing, history = 64, 16
	dir := b.TempDir()
	snapshotBytes := standingDataDir(b, dir, standing, 1)
	historyDir, historyBytes := b.TempDir(), 0.0
	b.Run("listed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, rep, err := api.Open(api.Config{DataDir: dir})
			if err != nil {
				b.Fatal(err)
			}
			checkStanding(b, rep, standing, 1)
			call := handlerCall(b, s.Handler())
			call("GET", "/api/v1/deployments?limit=1000", "", http.StatusOK)
			call("GET", "/api/v1/fleets", "", http.StatusOK)
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(snapshotBytes, "snapshot-bytes")
	})
	b.Run("touched", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, rep, err := api.Open(api.Config{DataDir: dir})
			if err != nil {
				b.Fatal(err)
			}
			checkStanding(b, rep, standing, 1)
			call := handlerCall(b, s.Handler())
			call("GET", "/api/v1/deployments?limit=1000", "", http.StatusOK)
			call("GET", "/api/v1/fleets", "", http.StatusOK)
			if jobs := call("GET", "/api/v1/clusters/d1/jobs", "", http.StatusOK); !bytes.Contains(jobs, []byte(`"count":1`)) {
				b.Fatalf("d1 rebuilt without its job: %s", jobs)
			}
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("first", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, _, err := api.Open(api.Config{DataDir: dir})
			if err != nil {
				b.Fatal(err)
			}
			handlerCall(b, s.Handler())("GET", "/api/v1/healthz", "", http.StatusOK)
			b.StopTimer()
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
	b.Run("history", func(b *testing.B) {
		if historyBytes == 0 { // b.Run calls this more than once
			historyBytes = standingDataDir(b, historyDir, standing, history)
			b.ResetTimer()
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, rep, err := api.Open(api.Config{DataDir: historyDir})
			if err != nil {
				b.Fatal(err)
			}
			handlerCall(b, s.Handler())("GET", "/api/v1/healthz", "", http.StatusOK)
			b.StopTimer()
			checkStanding(b, rep, standing, history)
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		b.ReportMetric(historyBytes, "snapshot-bytes")
	})
}

// standingDataDir builds BenchmarkRecoverStanding64's population in dir,
// with jobs jobs submitted to each deployment, and returns the size of the
// one snapshot that holds all of it.
func standingDataDir(b *testing.B, dir string, standing, jobs int) float64 {
	open := func(cfg api.Config) (*api.Server, func(method, path, body string, want int) []byte) {
		cfg.DataDir = dir
		srv, _, err := api.Open(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return srv, handlerCall(b, srv.Handler())
	}
	srv, call := open(api.Config{})
	await := func(path, settled string) { awaitBody(b, call, path, settled) }
	const job = `{"cores":1,"walltime":"1h"}`
	for i := 1; i <= standing; i++ {
		id := fmt.Sprintf("d%d", i)
		call("POST", "/api/v1/deployments", `{"cluster":"littlefe","scheduler":"torque"}`, http.StatusAccepted)
		await("/api/v1/deployments/"+id+"?limit=1", `"state":"ready"`)
		for j := 0; j < jobs && (i < standing || j < jobs-1); j++ {
			call("POST", "/api/v1/clusters/"+id+"/jobs", job, http.StatusCreated)
		}
	}
	call("POST", "/api/v1/fleets", `{"name":"standing","members":20,"cluster":"littlefe","nodes":3}`, http.StatusAccepted)
	await("/api/v1/fleets/f1", `"settled":true`)
	call("POST", "/api/v1/fleets/f1/scenarios", `{"name":"rolling-update"}`, http.StatusAccepted)
	await("/api/v1/fleets/f1/scenarios/s1?limit=1", `"state":"passed"`)
	// Every build has journaled its settlement once a reopened server lists
	// all of them ready.
	if err := srv.Close(); err != nil {
		b.Fatal(err)
	}
	// The last submit, at one record per snapshot: the snapshot it triggers
	// holds the whole population and leaves no log tail.
	srv, call = open(api.Config{SnapshotEvery: 1})
	if ready := bytes.Count(call("GET", "/api/v1/deployments?limit=1000", "", http.StatusOK), []byte(`"state":"ready"`)); ready != standing {
		b.Fatalf("%d of %d standing deployments reopened ready", ready, standing)
	}
	call("POST", fmt.Sprintf("/api/v1/clusters/d%d/jobs", standing), job, http.StatusCreated)
	var store struct {
		SnapshotBytes float64 `json:"snapshot_bytes"`
	}
	if err := json.Unmarshal(call("GET", "/api/v1/store", "", http.StatusOK), &store); err != nil {
		b.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		b.Fatal(err)
	}
	return store.SnapshotBytes
}

// checkStanding fails b unless rep recovered standingDataDir's population.
func checkStanding(b *testing.B, rep *api.RecoveryReport, standing, jobs int) {
	if rep.Rebuilt != standing || rep.OpsReplayed != standing*jobs || rep.Fleets != 1 || rep.Runs != 1 || rep.Records != 0 {
		b.Fatalf("recovery report = %+v, want %d rebuilt with %d jobs each, 1 fleet with 1 run, no log tail", rep, standing, jobs)
	}
}

// BenchmarkAPIFleetScenarioOp replays one operation of bench/'s
// fleet_scenario workload through the durable control plane's handler, in
// process: create a 100-member fleet, poll it ready, run campus-100, page
// the whole trace 100 events at a time, list the runs, delete the fleet.
// B/op is the server-side alloc_space one such operation costs — no
// sockets, no driver — which is where the per-cluster monitoring rings
// showed as ~101 MB before series grew on demand. wal_records/op is what
// the operation journals (GET /api/v1/store's next_seq, before and after);
// create_ms, run_ms and page_ms split the operation's wall time into fleet
// creation to settled, scenario start to passed (at the 1 ms poll grain),
// and paging plus delete.
func BenchmarkAPIFleetScenarioOp(b *testing.B) {
	srv, _, err := api.Open(api.Config{DataDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	benchmarkAPIFleetScenarioOp(b, srv)
}

// BenchmarkAPIFleetScenarioOpVolatile is the same operation on a server
// without a DataDir: what its phases cost when nothing is journaled.
func BenchmarkAPIFleetScenarioOpVolatile(b *testing.B) {
	benchmarkAPIFleetScenarioOp(b, api.New(api.Config{}))
}

func benchmarkAPIFleetScenarioOp(b *testing.B, srv *api.Server) {
	defer srv.Close()
	call := handlerCall(b, srv.Handler())
	await := func(path, settled string) []byte { return awaitBody(b, call, path, settled) }
	nextSeq := func() int { // omitted while zero, and on a volatile server
		return max(work.JSONInt(call("GET", "/api/v1/store", "", http.StatusOK), "next_seq"), 0)
	}
	// id reads a created resource's id off the 202 body. As in bench/'s
	// workloads, the loop decodes only the fields it needs, so allocs/op is
	// the server's.
	id := func(body []byte) string {
		id := work.JSONString(body, "id")
		if id == "" {
			b.Fatalf("no id in %.100s", body)
		}
		return id
	}
	var events int
	var phase [3]time.Duration // create, run, page
	before := nextSeq()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		lap := func(p int) {
			now := time.Now()
			phase[p] += now.Sub(start)
			start = now
		}
		fleet := "/api/v1/fleets/" + id(call("POST", "/api/v1/fleets",
			`{"name":"op","members":100,"cluster":"littlefe","nodes":4,"parallelism":4,"workers":8}`,
			http.StatusAccepted))
		await(fleet, `"settled":true`)
		lap(0)
		run := fleet + "/scenarios/" + id(call("POST", fleet+"/scenarios", `{"name":"campus-100"}`, http.StatusAccepted))
		await(run+"?limit=1", `"state":"passed"`)
		lap(1)
		events = 0
		for cursor := 0; ; {
			// Each event of a trace page is one object opening with its seq.
			page := call("GET", fmt.Sprintf("%s?cursor=%d&limit=100", run, cursor), "", http.StatusOK)
			next := work.JSONInt(page, "next_cursor")
			if next <= cursor {
				break
			}
			events += bytes.Count(page, []byte(`{"seq":`))
			cursor = next
		}
		call("GET", fleet+"/scenarios", "", http.StatusOK)
		call("DELETE", fleet, "", http.StatusNoContent)
		lap(2)
	}
	b.StopTimer()
	b.ReportMetric(float64(events), "trace_events")
	b.ReportMetric(float64(nextSeq()-before)/float64(b.N), "wal_records/op")
	for p, name := range []string{"create_ms/op", "run_ms/op", "page_ms/op"} {
		b.ReportMetric(float64(phase[p].Microseconds())/1e3/float64(b.N), name)
	}
}

// discardResponse is a ResponseWriter that keeps only the status, so a
// benchmark's allocs/op and B/op are the server's and not a recorder's.
type discardResponse struct {
	header http.Header
	code   int
}

func (w *discardResponse) Header() http.Header         { return w.header }
func (w *discardResponse) WriteHeader(code int)        { w.code = code }
func (w *discardResponse) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkAPIReadRows measures each read route class of bench/'s read_mix
// through the durable control plane's handler, in process, over that
// workload's per-tenant population: 3 unprovisioned 4-member fleets and 2
// ready deployments. Each route's body is checked once; the timed loop
// reuses one request and discards the response, so allocs/op and B/op are
// what a request costs inside the server (admission, mux, handler, encode).
// The deployments list is where a row that rendered the whole compatibility
// report showed: 407 allocations and 29.5 KB for two rows.
func BenchmarkAPIReadRows(b *testing.B) {
	xnit, err := core.NewXNITRepository()
	if err != nil {
		b.Fatal(err)
	}
	srv, _, err := api.Open(api.Config{DataDir: b.TempDir(), Repos: []*repo.Repository{xnit}})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	call := handlerCall(b, h)
	for range 3 {
		call("POST", "/api/v1/fleets", `{"name":"rm","members":4,"cluster":"littlefe","nodes":4,"provision":false}`, http.StatusAccepted)
	}
	for i := 1; i <= 2; i++ {
		call("POST", "/api/v1/deployments", `{"cluster":"littlefe","scheduler":"torque"}`, http.StatusAccepted)
		awaitBody(b, call, fmt.Sprintf("/api/v1/deployments/d%d?limit=1", i), `"state":"ready"`)
	}
	for _, rt := range []struct{ name, method, path, body, expect string }{
		{"deployments", "GET", "/api/v1/deployments", "", `"count":2`},
		{"deployment", "GET", "/api/v1/deployments/d1", "", `"state":"ready"`},
		{"fleets", "GET", "/api/v1/fleets", "", `"count":3`},
		{"page", "GET", "/api/v1/fleets?limit=2", "", `"next_cursor":2`},
		{"store", "GET", "/api/v1/store", "", `"durable":true`},
		{"scenarios", "GET", "/api/v1/scenarios", "", `"campus-100"`},
		{"discovery", "GET", "/api/v1", "", `"version":"v1"`},
		{"depsolve", "POST", "/api/v1/depsolve", `{"install":["gromacs"]}`, `"gromacs`},
	} {
		b.Run(rt.name, func(b *testing.B) {
			if body := handlerCall(b, h)(rt.method, rt.path, rt.body, http.StatusOK); !bytes.Contains(body, []byte(rt.expect)) {
				b.Fatalf("%s %s: body lacks %s: %.200s", rt.method, rt.path, rt.expect, body)
			}
			req := httptest.NewRequest(rt.method, rt.path, nil)
			w := &discardResponse{header: http.Header{}}
			body := strings.NewReader(rt.body)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				body.Reset(rt.body)
				req.Body = io.NopCloser(body)
				w.code = http.StatusOK
				if h.ServeHTTP(w, req); w.code != http.StatusOK {
					b.Fatalf("%s %s = %d", rt.method, rt.path, w.code)
				}
			}
		})
	}
}
