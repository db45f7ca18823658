package repo

import (
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"xcbc/internal/rpm"
)

func fixedClock() time.Time {
	return time.Date(2015, 5, 1, 12, 0, 0, 0, time.UTC)
}

func TestMetadataRoundTrip(t *testing.T) {
	r := New("xsede", "XSEDE NIT", "http://cb-repo.iu.xsede.org/xsederepo")
	mpi := rpm.NewPackage("openmpi", "1.6.4-3.el6", rpm.ArchX86_64).
		Summary("Open MPI").
		Category("Compilers, libraries, and programming").
		Size(12345).
		Provides(rpm.Cap("mpi")).
		Requires(rpm.CapVer("gcc", rpm.GE, "4.4")).
		Build()
	r.Publish(mpi, pkg("gcc", "4.4.7-11.el6"))

	md := r.GenerateMetadata(fixedClock())
	if md.RepoID != "xsede" || len(md.Packages) != 2 {
		t.Fatalf("metadata = %+v", md)
	}
	data, err := md.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeMetadata(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Packages) != 2 {
		t.Fatalf("decoded %d records", len(back.Packages))
	}
	var gotMPI *PackageRecord
	for i := range back.Packages {
		if back.Packages[i].Name == "openmpi" {
			gotMPI = &back.Packages[i]
		}
	}
	if gotMPI == nil {
		t.Fatal("openmpi missing after round trip")
	}
	if !slices.Contains(gotMPI.Provides, "mpi") {
		t.Errorf("provides lost in round trip: %v", gotMPI.Provides)
	}
	if len(gotMPI.Requires) != 1 || gotMPI.Requires[0] != "gcc >= 4.4" {
		t.Errorf("requires lost: %v", gotMPI.Requires)
	}
	if gotMPI.SizeBytes != 12345 {
		t.Errorf("size lost: %d", gotMPI.SizeBytes)
	}
}

func TestDecodeMetadataRejectsGarbage(t *testing.T) {
	if _, err := DecodeMetadata([]byte("{nope")); err == nil {
		t.Fatal("garbage should fail to decode")
	}
}

func TestChecksumStableAndSensitive(t *testing.T) {
	a := rpm.NewPackage("a", "1-1", rpm.ArchX86_64).Size(10).Files("/usr/bin/a").Build()
	b := rpm.NewPackage("a", "1-1", rpm.ArchX86_64).Size(10).Files("/usr/bin/a").Build()
	c := rpm.NewPackage("a", "1-1", rpm.ArchX86_64).Size(11).Files("/usr/bin/a").Build()
	if Checksum(a) != Checksum(b) {
		t.Error("checksum should be deterministic")
	}
	if Checksum(a) == Checksum(c) {
		t.Error("checksum should be sensitive to size")
	}
}

func TestMetadataVerify(t *testing.T) {
	r := New("x", "x", "")
	p := rpm.NewPackage("a", "1-1", rpm.ArchX86_64).Size(10).Build()
	r.Publish(p)
	md := r.GenerateMetadata(fixedClock())
	if bad := md.Verify(r); len(bad) != 0 {
		t.Fatalf("fresh metadata should verify, got %v", bad)
	}
	// Corrupt: retract and republish with a different size (new object, same
	// NEVRA) — old checksum no longer matches.
	r.Retract("a-1-1.x86_64")
	r.Publish(rpm.NewPackage("a", "1-1", rpm.ArchX86_64).Size(999).Build())
	if bad := md.Verify(r); len(bad) != 1 {
		t.Fatalf("corruption should be detected, got %v", bad)
	}
	// Missing: retract entirely.
	r.Retract("a-1-1.x86_64")
	bad := md.Verify(r)
	if len(bad) != 1 || !strings.Contains(bad[0], "missing") {
		t.Fatalf("missing package should be detected, got %v", bad)
	}
}

func TestServerReadme(t *testing.T) {
	r := New("xsede", "XSEDE NIT", "http://cb-repo.iu.xsede.org/xsederepo")
	srv := NewSetServer(fixedClock, NewSet(Config{Repo: r, Enabled: true}))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	res, err := ts.Client().Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	buf := make([]byte, 4096)
	n, _ := res.Body.Read(buf)
	body := string(buf[:n])
	if !strings.Contains(body, "[xsede]") || !strings.Contains(body, "yum-plugin-priorities") {
		t.Fatalf("readme missing repo stanza:\n%s", body)
	}
}

func TestServerMetadataAndPackages(t *testing.T) {
	r := New("xsede", "XSEDE NIT", "")
	r.Publish(pkg("lammps", "20140801-1"))
	ts := httptest.NewServer(NewSetServer(fixedClock, NewSet(Config{Repo: r, Enabled: true})))
	defer ts.Close()

	res, err := ts.Client().Get(ts.URL + "/xsede/repodata/repomd.json")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("metadata status = %d", res.StatusCode)
	}
	data := make([]byte, 1<<16)
	n, _ := res.Body.Read(data)
	md, err := DecodeMetadata(data[:n])
	if err != nil {
		t.Fatal(err)
	}
	if len(md.Packages) != 1 || md.Packages[0].Name != "lammps" {
		t.Fatalf("metadata packages = %v", md.Packages)
	}

	res2, err := ts.Client().Get(ts.URL + "/xsede/packages/lammps-20140801-1.x86_64.rpm")
	if err != nil {
		t.Fatal(err)
	}
	res2.Body.Close()
	if res2.StatusCode != 200 {
		t.Fatalf("package status = %d", res2.StatusCode)
	}

	for _, bad := range []string{"/nope/repodata/repomd.json", "/xsede/packages/ghost-1-1.x86_64.rpm", "/xsede/bogus"} {
		res3, err := ts.Client().Get(ts.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		res3.Body.Close()
		if res3.StatusCode != 404 {
			t.Errorf("%s: status = %d, want 404", bad, res3.StatusCode)
		}
	}
}
