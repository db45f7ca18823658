package xcbc

import (
	"context"
	"errors"
	"testing"
)

// compatAgrees compares the counting path a status row uses with the full
// report the CLIs print. Both are visitors of one walk over the reference
// (internal/xsede), so the rules cannot differ; what this checks is that a
// deployment hands both the same reference.
func compatAgrees(t *testing.T, what string, d *Deployment) {
	t.Helper()
	rep, err := d.core.CompatReport()
	if err != nil {
		t.Fatalf("%s: CompatReport: %v", what, err)
	}
	passed, total, err := d.CompatCounts()
	if err != nil || passed != rep.Passed() || total != rep.Total() {
		t.Fatalf("%s: CompatCounts = %d/%d (%v), report %d/%d", what, passed, total, err, rep.Passed(), rep.Total())
	}
	if c, err := d.Compat(); err != nil || c.Passed != passed || c.Total != total {
		t.Fatalf("%s: Compat = %d/%d (%v), CompatCounts %d/%d", what, c.Passed, c.Total, err, passed, total)
	}
}

// TestCompatCountsAgreeWithReport covers every catalog cluster under every
// scheduler on the bare-metal path, and on the XNIT path both as the vendor
// shipped it and after adoption (with and without a scheduler change).
func TestCompatCountsAgreeWithReport(t *testing.T) {
	ctx := context.Background()
	for _, cl := range Clusters() {
		for _, sched := range Schedulers() {
			d, err := NewXCBC(WithCluster(cl), WithScheduler(sched)).Deploy(ctx)
			if errors.Is(err, ErrDiskless) {
				continue // Rocks cannot build it; the XNIT path below covers it
			}
			if err != nil {
				t.Fatalf("xcbc %s/%s: %v", cl, sched, err)
			}
			compatAgrees(t, "xcbc "+cl+"/"+sched, d)
		}
		for _, sched := range append([]string{""}, Schedulers()...) {
			what := "xnit " + cl + "/" + sched
			vendor, err := NewVendor(WithCluster(cl)).Deploy(ctx)
			if err != nil {
				t.Fatalf("%s: vendor: %v", what, err)
			}
			compatAgrees(t, what+" before adoption", vendor)
			opts := []Option{WithProfiles(Profiles()...)}
			if sched != "" {
				opts = append(opts, WithScheduler(sched))
			}
			d, err := NewXNIT(vendor, opts...).Deploy(ctx)
			if err != nil {
				t.Fatalf("%s: adopt: %v", what, err)
			}
			compatAgrees(t, what+" after adoption", d)
		}
	}
}

// TestCompatUnknownScheduler: both paths fail the same way, through the
// same translation.
func TestCompatUnknownScheduler(t *testing.T) {
	d, err := NewVendor(WithCluster("limulus")).Deploy(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	d.core.Scheduler = "cron"
	_, want := d.Compat()
	passed, total, got := d.CompatCounts()
	if want == nil || got == nil || got.Error() != want.Error() || passed != 0 || total != 0 {
		t.Fatalf("CompatCounts = %d/%d, %v; Compat fails with %v", passed, total, got, want)
	}
}
