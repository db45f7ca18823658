package fleet

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"xcbc/internal/core"
	"xcbc/internal/orchestrator"
	"xcbc/internal/sched"
)

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"zero members", Spec{Members: 0}},
		{"negative nodes", Spec{Members: 1, Nodes: -1}},
		{"negative parallelism", Spec{Members: 1, Parallelism: -2}},
		{"negative retries", Spec{Members: 1, Retries: -1}},
		{"unknown machine", Spec{Members: 1, Cluster: "deep-thought"}},
	}
	for _, tc := range cases {
		if _, err := New(tc.spec); !errors.Is(err, ErrBadSpec) {
			t.Errorf("%s: New = %v, want ErrBadSpec", tc.name, err)
		}
	}
}

func TestProvisionSmallFleet(t *testing.T) {
	f, err := New(Spec{Members: 4, Nodes: 2, Parallelism: 2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if st := f.Status(); st.Pending != 4 {
		t.Fatalf("pre-provision status = %+v, want 4 pending, not settled", st)
	}
	if err := f.Wait(context.Background()); !errors.Is(err, ErrNotProvisioned) {
		t.Fatalf("Wait before Provision = %v, want ErrNotProvisioned", err)
	}
	if err := f.Provision(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := f.Provision(context.Background()); !errors.Is(err, ErrAlreadyProvisioned) {
		t.Fatalf("second Provision = %v, want ErrAlreadyProvisioned", err)
	}
	if err := f.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := f.Status()
	if st.Ready != 4 || st.Pending+st.Building != 0 {
		t.Fatalf("status = %+v, want 4 ready settled", st)
	}
	for _, m := range f.Members() {
		d, ok := m.Deployment()
		if !ok {
			t.Fatalf("%s: no deployment", m.ID)
		}
		if len(m.Hardware().Computes) != 2 {
			t.Fatalf("%s: %d computes, want 2", m.ID, len(m.Hardware().Computes))
		}
		if d.InstallDuration <= 0 {
			t.Fatalf("%s: non-positive install duration", m.ID)
		}
		if evs, _ := m.Events(0); len(evs) == 0 {
			t.Fatalf("%s: empty build journal", m.ID)
		}
	}
}

func TestMemberResultsIdenticalAcrossMembers(t *testing.T) {
	// Every member clones the same hardware and runs on a private engine,
	// so build results must match member-for-member however the pool
	// interleaved them.
	f, err := New(Spec{Members: 6, Nodes: 3, Parallelism: 3, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Provision(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := f.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	first, _ := f.members[0].Deployment()
	for _, m := range f.members[1:] {
		d, _ := m.Deployment()
		if d.PackagesInstalled != first.PackagesInstalled {
			t.Fatalf("%s: %d packages, member 0 has %d", m.ID, d.PackagesInstalled, first.PackagesInstalled)
		}
		if d.InstallDuration != first.InstallDuration {
			t.Fatalf("%s: duration %v, member 0 took %v", m.ID, d.InstallDuration, first.InstallDuration)
		}
	}
}

func TestInstallHookQuarantine(t *testing.T) {
	f, err := New(Spec{Members: 2, Nodes: 3, Parallelism: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Member 0 loses compute-0-2 permanently; member 1 builds clean.
	m0 := f.Members()[0]
	m0.SetInstallHook(func(node string, attempt int) error {
		if node == "compute-0-2" {
			return fmt.Errorf("dead NIC")
		}
		return nil
	})
	if err := f.Provision(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := f.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	d0, _ := m0.Deployment()
	if len(d0.Quarantined) != 1 || d0.Quarantined[0] != "compute-0-2" {
		t.Fatalf("member 0 quarantined = %v, want [compute-0-2]", d0.Quarantined)
	}
	m1 := f.Members()[1]
	d1, _ := m1.Deployment()
	if len(d1.Quarantined) != 0 {
		t.Fatalf("member 1 quarantined = %v, want none", d1.Quarantined)
	}
	if st := f.Status(); st.Quarantined != 1 {
		t.Fatalf("status quarantined = %d, want 1", st.Quarantined)
	}
}

func TestOperationsAndSharedXNIT(t *testing.T) {
	f, err := New(Spec{Members: 2, Nodes: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := f.Members()[0]
	if _, err := m.Operations(); !errors.Is(err, ErrMemberNotReady) {
		t.Fatalf("Operations before provision = %v, want ErrMemberNotReady", err)
	}
	if err := m.AdoptXNIT(); !errors.Is(err, ErrMemberNotReady) {
		t.Fatalf("AdoptXNIT before provision = %v, want ErrMemberNotReady", err)
	}
	if err := f.Provision(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := f.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	ops, err := m.Operations()
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := m.Operations(); again != ops {
		t.Fatal("Operations not cached per member")
	}
	if _, err := ops.SubmitJob(&sched.Job{User: "alice", Cores: 1, Walltime: time.Hour}); err != nil {
		t.Fatal(err)
	}

	// The XNIT repository is built once and shared by reference.
	if err := m.AdoptXNIT(); err != nil {
		t.Fatal(err)
	}
	if err := m.AdoptXNIT(); err != nil { // idempotent
		t.Fatal(err)
	}
	m1 := f.Members()[1]
	if err := m1.AdoptXNIT(); err != nil {
		t.Fatal(err)
	}
	d0, _ := m.Deployment()
	d1, _ := m1.Deployment()
	r0 := d0.Repos.Lookup(core.XNITRepoID)
	r1 := d1.Repos.Lookup(core.XNITRepoID)
	if r0 == nil || r0 != r1 {
		t.Fatalf("XNIT repo not shared: %p vs %p", r0, r1)
	}
}

func TestCancelMidProvision(t *testing.T) {
	f, err := New(Spec{Members: 8, Nodes: 4, Parallelism: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	for _, m := range f.Members() {
		m.SetInstallHook(func(node string, attempt int) error {
			<-release // hold every build at its first compute kickstart
			return nil
		})
	}
	if err := f.Provision(context.Background()); err != nil {
		t.Fatal(err)
	}
	f.Cancel()
	close(release)
	err = f.Wait(context.Background())
	if err == nil {
		t.Fatal("Wait after Cancel = nil, want a cancellation error")
	}
	st := f.Status()
	if st.Pending+st.Building != 0 {
		t.Fatalf("fleet not settled after cancel: %+v", st)
	}
	if st.Cancelled == 0 {
		t.Fatalf("no members cancelled: %+v", st)
	}
	if st.Ready+st.Cancelled+st.Failed != st.Members {
		t.Fatalf("inconsistent terminal accounting: %+v", st)
	}
}

func TestMemberStateStrings(t *testing.T) {
	// The aggregate Status buckets must cover every orchestrator state.
	for _, s := range []orchestrator.State{
		orchestrator.StatePending, orchestrator.StateBuilding,
		orchestrator.StateReady, orchestrator.StateFailed, orchestrator.StateCancelled,
	} {
		if s.String() == "" {
			t.Fatalf("state %d has no name", s)
		}
	}
}
