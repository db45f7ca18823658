// Durable control plane: kill the server, keep the clusters. This is the
// crash story `repo-server -data-dir` serves: every mutation is journaled
// to a write-ahead log (internal/wal) as it happens, so a restarted
// server recovers its deployments, fleets, and scenario runs — ready
// clusters come back with their job history byte-identical, and a
// scenario that was mid-flight replays deterministically from its seed.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"xcbc/pkg/xcbc/api"
)

func main() {
	dir, err := os.MkdirTemp("", "xcbc-durable")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. First life: a durable server. api.Open replaces api.New when a
	// data directory is in play (repo-server does this under -data-dir).
	srv, _, err := api.Open(api.Config{DataDir: dir})
	if err != nil {
		log.Fatal(err)
	}
	h := httptest.NewServer(srv.Handler())
	fmt.Printf("server 1 up, journaling to %s\n\n", dir)

	// 2. Operate it like any control plane: deploy a cluster, wait for
	// ready, submit a job, advance simulated time.
	post(h.URL+"/api/v1/deployments", `{"cluster":"littlefe","scheduler":"torque","parallelism":4}`)
	waitReady(h.URL + "/api/v1/deployments/d1")
	post(h.URL+"/api/v1/clusters/d1/jobs", `{"name":"md-relax","user":"alice","cores":4,"runtime":"20m","walltime":"1h"}`)
	post(h.URL+"/api/v1/clusters/d1/advance", `{"duration":"90m"}`)
	before := get(h.URL + "/api/v1/clusters/d1/jobs")
	fmt.Printf("before the crash, jobs: %s\n", strings.TrimSpace(before))

	// 3. "Crash". The process state is gone; the WAL is not.
	h.Close()
	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nserver 1 killed")

	// 4. Second life: reopen the same directory. Open reports what it
	// recovered and returns; the ready cluster is restored from its
	// journaled row, and the first request that needs it live rebuilds it
	// from its journaled create request and replays the recorded day-2
	// operations in order.
	srv2, rep, err := api.Open(api.Config{DataDir: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer srv2.Close()
	h2 := httptest.NewServer(srv2.Handler())
	defer h2.Close()
	fmt.Printf("server 2 recovered %d WAL records in %v: %d deployments (%d ready, built on first use), %d ops to replay\n",
		rep.Records, rep.Elapsed.Round(time.Millisecond), rep.Deployments, rep.Rebuilt, rep.OpsReplayed)

	// 5. The recovered state is the same state: job IDs, completion
	// times, and the virtual clock all landed where they were.
	after := get(h2.URL + "/api/v1/clusters/d1/jobs")
	fmt.Printf("after recovery,   jobs: %s\n", strings.TrimSpace(after))
	if before == after {
		fmt.Println("\njob history identical across the restart")
	} else {
		fmt.Println("\nDIVERGED — this would be a durability bug")
	}
}

func post(url, body string) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		log.Fatalf("POST %s: %s", url, resp.Status)
	}
}

func get(url string) string {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var v any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		log.Fatal(err)
	}
	out, err := json.Marshal(v)
	if err != nil {
		log.Fatal(err)
	}
	return string(out)
}

func waitReady(url string) {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err != nil {
			log.Fatal(err)
		}
		var info struct {
			State string `json:"state"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		switch info.State {
		case "ready":
			fmt.Printf("deployment d1 %s\n", info.State)
			return
		case "failed", "cancelled":
			log.Fatalf("deployment settled %s", info.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	log.Fatal("deployment never settled")
}
