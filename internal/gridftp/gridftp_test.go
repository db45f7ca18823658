package gridftp

import (
	"strings"
	"testing"
	"time"

	"xcbc/internal/sim"
)

func TestEndpointFiles(t *testing.T) {
	ep := NewEndpoint("littlefe#data", "Indiana University", 1)
	fi := ep.Put("/data/reads.fastq", 2e9)
	if fi.Checksum == "" {
		t.Fatal("checksum empty")
	}
	got, ok := ep.Stat("/data/reads.fastq")
	if !ok || got.Size != 2e9 {
		t.Fatalf("Stat = %+v, %v", got, ok)
	}
	ep.Put("/data/ref.fa", 3e9)
	ep.Put("/home/u/notes.txt", 1024)
	if l := ep.List("/data"); len(l) != 2 || l[0].Path != "/data/reads.fastq" {
		t.Fatalf("List = %v", l)
	}
}

func TestTransferHappyPath(t *testing.T) {
	eng := sim.NewEngine()
	svc := NewService(eng)
	campus := NewEndpoint("littlefe#data", "IU", 1)       // 1 Gbit campus uplink
	stampede := NewEndpoint("xsede#stampede", "TACC", 10) // 10 Gbit
	campus.Put("/data/input.nc", 1e9)                     // 1 GB

	xfer, err := svc.Submit(campus, "/data/input.nc", stampede, "/scratch/u/input.nc")
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if xfer.State != TransferSucceeded {
		t.Fatalf("state = %v (%v)", xfer.State, xfer.Err)
	}
	if !xfer.Verified {
		t.Fatal("integrity verification failed")
	}
	// Bottleneck is the 1 Gbit side: 1e9 bytes / 125e6 B/s = 8 s + 200 ms.
	want := 8*time.Second + 200*time.Millisecond
	if diff := xfer.Duration() - want; diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("duration = %v, want ~%v", xfer.Duration(), want)
	}
	if _, ok := stampede.Stat("/scratch/u/input.nc"); !ok {
		t.Fatal("file not present at destination")
	}
}

func TestTransferMissingSource(t *testing.T) {
	eng := sim.NewEngine()
	svc := NewService(eng)
	a := NewEndpoint("a", "x", 1)
	b := NewEndpoint("b", "y", 1)
	if _, err := svc.Submit(a, "/ghost", b, "/ghost"); err == nil {
		t.Fatal("missing source should fail at submit")
	}
}

func TestTransferRetriesOnFault(t *testing.T) {
	eng := sim.NewEngine()
	svc := NewService(eng)
	a := NewEndpoint("a", "x", 1)
	b := NewEndpoint("b", "y", 1)
	a.Put("/f", 1e6)
	a.InjectFaults(2) // every 2nd chunk attempt fails; first attempt is sent #1 (ok)
	x1, _ := svc.Submit(a, "/f", b, "/f1")
	eng.Run()
	if x1.State != TransferSucceeded || x1.Retries != 0 {
		t.Fatalf("first transfer: %v retries=%d", x1.State, x1.Retries)
	}
	// Second transfer's first attempt is sent #2 -> fault -> retry succeeds.
	x2, _ := svc.Submit(a, "/f", b, "/f2")
	eng.Run()
	if x2.State != TransferSucceeded || x2.Retries != 1 {
		t.Fatalf("second transfer: %v retries=%d", x2.State, x2.Retries)
	}
}

func TestTransferExhaustsRetries(t *testing.T) {
	eng := sim.NewEngine()
	svc := NewService(eng)
	svc.MaxRetries = 2
	a := NewEndpoint("a", "x", 1)
	b := NewEndpoint("b", "y", 1)
	a.Put("/f", 1e6)
	a.InjectFaults(1) // everything fails
	x, _ := svc.Submit(a, "/f", b, "/f")
	eng.Run()
	if x.State != TransferFailed || x.Err == nil {
		t.Fatalf("state = %v err = %v", x.State, x.Err)
	}
	if x.Retries != 3 { // initial + 2 retries counted as 3 failed attempts
		t.Fatalf("retries = %d", x.Retries)
	}
}

func TestTransferNoBandwidth(t *testing.T) {
	eng := sim.NewEngine()
	svc := NewService(eng)
	a := NewEndpoint("a", "x", 0)
	b := NewEndpoint("b", "y", 1)
	a.Put("/f", 1e6)
	x, _ := svc.Submit(a, "/f", b, "/f")
	eng.Run()
	if x.State != TransferFailed {
		t.Fatalf("state = %v", x.State)
	}
}

func TestNamespaceMountResolve(t *testing.T) {
	ns := NewNamespace()
	campus := NewEndpoint("littlefe#data", "IU", 1)
	stampede := NewEndpoint("xsede#stampede", "TACC", 10)
	if err := ns.Mount("/xsede/iu/littlefe", campus); err != nil {
		t.Fatal(err)
	}
	if err := ns.Mount("/xsede/tacc/stampede", stampede); err != nil {
		t.Fatal(err)
	}
	if err := ns.Mount("relative", campus); err == nil {
		t.Fatal("relative mount should fail")
	}
	if err := ns.Mount("/xsede/iu/littlefe", stampede); err == nil {
		t.Fatal("duplicate mount should fail")
	}
	ep, local, err := ns.Resolve("/xsede/iu/littlefe/data/x.nc")
	if err != nil || ep != campus || local != "/data/x.nc" {
		t.Fatalf("Resolve = %v %q %v", ep, local, err)
	}
	if _, _, err := ns.Resolve("/nowhere/x"); err == nil {
		t.Fatal("unmounted path should fail")
	}
}

func TestNamespaceLongestPrefixWins(t *testing.T) {
	ns := NewNamespace()
	outer := NewEndpoint("outer", "x", 1)
	inner := NewEndpoint("inner", "x", 1)
	ns.Mount("/xsede", outer)
	ns.Mount("/xsede/iu", inner)
	ep, local, err := ns.Resolve("/xsede/iu/file")
	if err != nil || ep != inner || local != "/file" {
		t.Fatalf("longest prefix: %v %q %v", ep, local, err)
	}
	ep, _, _ = ns.Resolve("/xsede/other/file")
	if ep != outer {
		t.Fatal("outer mount should cover non-inner paths")
	}
}

func TestNamespaceCopyAndList(t *testing.T) {
	eng := sim.NewEngine()
	svc := NewService(eng)
	ns := NewNamespace()
	campus := NewEndpoint("littlefe#data", "IU", 1)
	stampede := NewEndpoint("xsede#stampede", "TACC", 10)
	ns.Mount("/xsede/iu/littlefe", campus)
	ns.Mount("/xsede/tacc/stampede", stampede)
	campus.Put("/results/md.trr", 5e8)

	x, err := ns.Copy(svc, "/xsede/iu/littlefe/results/md.trr", "/xsede/tacc/stampede/scratch/md.trr")
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if x.State != TransferSucceeded {
		t.Fatalf("copy failed: %v", x.Err)
	}
	if files := stampede.List("/scratch"); len(files) != 1 || !strings.HasSuffix(files[0].Path, "md.trr") {
		t.Fatalf("List = %v", files)
	}
	if _, err := ns.Copy(svc, "/bad/src", "/xsede/iu/littlefe/x"); err == nil {
		t.Fatal("bad src should fail")
	}
	if _, err := ns.Copy(svc, "/xsede/iu/littlefe/results/md.trr", "/bad/dst"); err == nil {
		t.Fatal("bad dst should fail")
	}
}

func TestTransferStateStrings(t *testing.T) {
	for s, want := range map[TransferState]string{
		TransferQueued: "queued", TransferActive: "active",
		TransferSucceeded: "succeeded", TransferFailed: "failed",
	} {
		if s.String() != want {
			t.Errorf("%d = %q", s, s.String())
		}
	}
}
