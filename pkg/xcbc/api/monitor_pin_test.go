package api

// Monitoring pin. testdata/monitor-pin.golden was written at commit
// 0caf692 — the parent of the grow-on-demand series, struct alert keys
// and the install log rendered on read — so this test fails if the new
// storage changes one byte of what a reader sees: the REST metrics and
// alerts bodies across threshold and host-down transitions, every
// retained sample of a series, the Ganglia XML export, the text report
// and the install log.

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"xcbc/internal/cluster"
)

func TestMonitoringPinnedToParent(t *testing.T) {
	var failing atomic.Bool
	s := New(pinConfig(&failing))
	defer s.Close()
	var buf bytes.Buffer
	call := func(method, path, body string, want int) {
		t.Helper()
		rec := do(t, s, method, path, body, nil)
		if rec.Code != want {
			t.Fatalf("%s %s = %d, want %d: %s", method, path, rec.Code, want, rec.Body.String())
		}
		if method == "GET" {
			fmt.Fprintf(&buf, "GET %s\n%s", path, rec.Body.Bytes())
		}
	}
	const d1 = "/api/v1/clusters/d1"
	observe := func() {
		t.Helper()
		call("GET", d1+"/metrics", "", http.StatusOK)
		call("GET", d1+"/alerts", "", http.StatusOK)
	}

	call("POST", "/api/v1/deployments", `{"cluster":"littlefe","scheduler":"torque"}`, http.StatusAccepted)
	if final, _ := pollDeployment(t, s, "d1"); final.State != "ready" {
		t.Fatalf("d1 settled %q", final.State)
	}
	dep, _ := s.openTenant.deployments.get("d1")
	cl, err := dep.cluster()
	if err != nil {
		t.Fatal(err)
	}
	sdk := cl.Deployment()

	observe() // idle
	// Fill every compute core: high-load raises on each compute.
	call("POST", d1+"/jobs", `{"name":"hpl","user":"alice","cores":8,"walltime":"2h","runtime":"20m"}`, http.StatusCreated)
	observe()
	call("POST", d1+"/advance", `{"duration":"30m"}`, http.StatusOK)
	observe() // job done: high-load clears
	// A node goes dark: after three silent intervals host-down raises,
	// and clears when it reports again.
	node, ok := sdk.Hardware().Lookup("compute-0-2")
	if !ok {
		t.Fatal("no compute-0-2")
	}
	node.SetPower(cluster.PowerOff)
	call("POST", d1+"/advance", `{"duration":"10m"}`, http.StatusOK)
	observe()
	node.SetPower(cluster.PowerOn)
	observe()

	samples := sdk.Monitor().Samples("compute-0-1", "load_one")
	mean := 0.0
	for _, m := range samples {
		mean += m.Value
	}
	fmt.Fprintf(&buf, "series compute-0-1/load_one len=%d mean=%v\n", len(samples), mean/float64(len(samples)))
	for _, m := range samples {
		fmt.Fprintf(&buf, "%+v\n", m)
	}
	xml, err := sdk.Monitor().ExportXML()
	if err != nil {
		t.Fatal(err)
	}
	latest, _, _ := sdk.Monitor().Latest(nil)
	var hosts []string
	for _, s := range latest {
		hosts = append(hosts, s.Host)
	}
	fmt.Fprintf(&buf, "ExportXML\n%s\nReport\n%sHosts %q\nInstallLog\n%s\n",
		xml, sdk.Monitor().Report(), hosts, strings.Join(sdk.InstallLog(), "\n"))

	path := filepath.Join("testdata", "monitor-pin.golden")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (written at the parent commit; -update re-pins)", err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Errorf("monitoring bytes drifted from %s:\n got: %s\nwant: %s", path, buf.Bytes(), want)
	}
}
