package provision

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"xcbc/internal/cluster"
	"xcbc/internal/sim"
)

// waveInstaller builds a ready-to-kickstart installer: frontend installed,
// computes discovered.
func waveInstaller(t *testing.T) (*Installer, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	ins := testInstaller(t, cluster.NewLittleFe())
	if _, err := ins.InstallFrontend(eng); err != nil {
		t.Fatal(err)
	}
	if err := ins.DiscoverComputes(); err != nil {
		t.Fatal(err)
	}
	return ins, eng
}

// TestWaveCostIsMaxNotSum is the heart of the model: overlapping kickstarts
// cost the wave its slowest member, while sequential installs sum.
func TestWaveCostIsMaxNotSum(t *testing.T) {
	seqIns, seqEng := waveInstaller(t)
	seqStart := seqEng.Now()
	var perNode time.Duration
	for _, n := range seqIns.Cluster.Computes {
		r, err := seqIns.InstallCompute(seqEng, n.Name)
		if err != nil {
			t.Fatal(err)
		}
		perNode = r.Duration
	}
	seqTotal := (seqEng.Now() - seqStart).Duration()

	waveIns, waveEng := waveInstaller(t)
	names := waveIns.Cluster.Computes
	waveStart := waveEng.Now()
	wr := waveIns.InstallWave(waveEng, 0, len(names), WaveOptions{Width: len(names)})
	waveTotal := (waveEng.Now() - waveStart).Duration()

	if len(wr.Results) != len(names) || len(wr.Failed) != 0 {
		t.Fatalf("wave = %d ok, %d failed", len(wr.Results), len(wr.Failed))
	}
	if seqTotal != perNode*time.Duration(len(names)) {
		t.Errorf("sequential total %v != %d × %v", seqTotal, len(names), perNode)
	}
	if waveTotal != perNode {
		t.Errorf("wave total %v, want the single-node cost %v (max, not sum)", waveTotal, perNode)
	}
	// Both paths leave identical node state.
	for _, n := range names {
		if n.OS() == "" {
			t.Errorf("%s not installed after wave", n.Name)
		}
	}
}

func TestWaveRetrySucceedsWithBackoffCost(t *testing.T) {
	ins, eng := waveInstaller(t)
	names := ins.Cluster.Computes
	flaky := names[1].Name
	failures := 0
	ins.Hook = func(node string, attempt int) error {
		if node == flaky && attempt == 1 {
			failures++
			return errors.New("PXE timeout")
		}
		return nil
	}
	start := eng.Now()
	wr := ins.InstallWave(eng, 0, len(names), WaveOptions{Width: len(names), Retries: 2, Backoff: time.Minute})
	if failures != 1 {
		t.Fatalf("hook saw %d first attempts for %s", failures, flaky)
	}
	if len(wr.Results) != len(names) || len(wr.Failed) != 0 {
		t.Fatalf("wave = %d ok, %d failed; want all recovered", len(wr.Results), len(wr.Failed))
	}
	// The flaky node's failed PXE attempt plus one minute of backoff made it
	// the slowest member, and the wave clock stretched to match.
	var clean, flakyDur time.Duration
	for _, r := range wr.Results {
		if r.Node == flaky {
			flakyDur = r.Duration
		} else {
			clean = r.Duration
		}
	}
	wantExtra := failedAttemptCost + time.Minute
	if flakyDur != clean+wantExtra {
		t.Errorf("flaky duration %v, want clean %v + %v", flakyDur, clean, wantExtra)
	}
	if got := (eng.Now() - start).Duration(); got != flakyDur {
		t.Errorf("wave advanced clock by %v, want slowest member %v", got, flakyDur)
	}
}

func TestWaveQuarantineDoesNotAbort(t *testing.T) {
	ins, eng := waveInstaller(t)
	names := ins.Cluster.Computes
	bad := names[2].Name
	ins.Hook = func(node string, attempt int) error {
		if node == bad {
			return errors.New("dead NIC")
		}
		return nil
	}
	wr := ins.InstallWave(eng, 0, len(names), WaveOptions{Width: len(names), Retries: 1})
	if len(wr.Results) != len(names)-1 {
		t.Fatalf("installed %d, want %d", len(wr.Results), len(names)-1)
	}
	if len(wr.Failed) != 1 || wr.Failed[0].Node != bad || wr.Failed[0].Attempts != 2 {
		t.Fatalf("failed = %+v", wr.Failed)
	}
	// The log is rendered on read, from the values captured when the
	// line was logged.
	want := "compute " + bad + " quarantined after 2 attempt(s): provision: " + bad + " install attempt 2 failed: dead NIC"
	if log := ins.Log(); !slices.Contains(log, want) || !slices.Equal(log, ins.Log()) {
		t.Errorf("log = %q, want a line %q on every read", log, want)
	}
	// The quarantined node was never touched: no OS, nothing installed.
	n, _ := ins.Cluster.Lookup(bad)
	if n.OS() != "" || n.Packages().Len() != 0 {
		t.Errorf("quarantined node has state: os=%q pkgs=%d", n.OS(), n.Packages().Len())
	}
}

func TestWavesPartition(t *testing.T) {
	for _, tc := range []struct{ width, waves, last int }{{2, 3, 1}, {0, 5, 1}, {4, 2, 1}, {8, 1, 5}} {
		ins, eng := waveInstaller(t)
		waves, err := ins.InstallComputeWaves(context.Background(), eng, WaveOptions{Width: tc.width}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(waves) != tc.waves || len(waves[len(waves)-1].Results) != tc.last {
			t.Errorf("width %d: %d waves, the last of %d; want %d, the last of %d",
				tc.width, len(waves), len(waves[len(waves)-1].Results), tc.waves, tc.last)
		}
	}
}

func TestInstallAllWavesMatchesInstallAll(t *testing.T) {
	ins, eng := waveInstaller(t)
	c := ins.Cluster
	start := eng.Now()
	waves, err := ins.InstallComputeWaves(context.Background(), eng, WaveOptions{Width: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(waves) != 3 { // 5 computes at width 2
		t.Fatalf("waves = %d, want 3", len(waves))
	}
	var results int
	var elapsed time.Duration
	for _, wr := range waves {
		results += len(wr.Results)
		elapsed += wr.Duration
	}
	if results != len(c.Computes) {
		t.Fatalf("results = %d, want %d", results, len(c.Computes))
	}
	for _, n := range c.Nodes() {
		if n.OS() == "" {
			t.Errorf("%s not installed", n.Name)
		}
	}
	if elapsed <= 0 || elapsed != (eng.Now()-start).Duration() {
		t.Errorf("waves took %v, engine advanced %v", elapsed, (eng.Now() - start).Duration())
	}
}

func TestInstallAllWavesCancelledBetweenWaves(t *testing.T) {
	ins, eng := waveInstaller(t)
	c := ins.Cluster
	ctx, cancel := context.WithCancel(context.Background())
	installed := 0
	ins.Hook = func(node string, attempt int) error {
		installed++
		if installed == 3 { // first node of wave 2 — cancel mid-wave
			cancel()
		}
		return nil
	}
	waves, err := ins.InstallComputeWaves(ctx, eng, WaveOptions{Width: 2}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Waves 1 and 2 committed (cancellation lands between waves), wave 3
	// never started: 4 computes installed, the 5th untouched.
	if len(waves) != 2 {
		t.Fatalf("waves %d", len(waves))
	}
	for i, n := range c.Computes {
		if i < 4 && n.OS() == "" {
			t.Errorf("wave-committed node %s not installed", n.Name)
		}
		if i == 4 && (n.OS() != "" || n.Packages().Len() != 0) {
			t.Errorf("pending node %s was touched: os=%q pkgs=%d", n.Name, n.OS(), n.Packages().Len())
		}
	}
}

func TestAllNodesQuarantinedFailsBuild(t *testing.T) {
	ins, eng := waveInstaller(t)
	ins.Hook = func(node string, attempt int) error { return errors.New("switch down") }
	if _, err := ins.InstallComputeWaves(context.Background(), eng, WaveOptions{Width: 4}, nil); err == nil {
		t.Fatal("build with every compute quarantined must fail")
	}
}

// TestCommitFailureCarriesRealAttempts: a node that needed a retry and
// then fails at commit (its host record vanished while the wave was still
// starting other nodes) is reported with the attempts it consumed, not 1.
func TestCommitFailureCarriesRealAttempts(t *testing.T) {
	ins, eng := waveInstaller(t)
	victim, bystander := ins.Cluster.Computes[0].Name, ins.Cluster.Computes[1].Name
	ins.Hook = func(node string, attempt int) error {
		switch {
		case node == victim && attempt == 1:
			return errors.New("flaky PXE")
		case node == bystander:
			// The victim has kickstarted by now; pull its record so its
			// commit fails.
			if err := ins.DB.RemoveHost(0); err != nil {
				t.Error(err)
			}
		}
		return nil
	}
	wr := ins.InstallWave(eng, 0, 2, WaveOptions{Width: 2, Retries: 2})
	if len(wr.Results) != 1 || wr.Results[0].Node != bystander {
		t.Fatalf("results = %+v, want only %s", wr.Results, bystander)
	}
	if len(wr.Failed) != 1 || wr.Failed[0].Node != victim || wr.Failed[0].Attempts != 2 {
		t.Fatalf("failed = %+v, want %s after 2 attempts", wr.Failed, victim)
	}
}
