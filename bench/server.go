package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xcbc/bench/work"
)

// outDir holds everything the benchmark writes: binaries, temporary
// DataDirs, traces and result files. It is inside the checkout and ignored
// by git.
const outDir = "bench/out"

// buildBinary compiles one of the repository's main packages into
// bench/out/bin and returns the binary's path.
func buildBinary(pkg string) (string, error) {
	if _, err := os.Stat("go.mod"); err != nil {
		return "", fmt.Errorf("run the benchmark from the root of the repository: %w", err)
	}
	bin, err := filepath.Abs(filepath.Join(outDir, "bin", filepath.Base(pkg)))
	if err != nil {
		return "", err
	}
	out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go build %s: %w\n%s", pkg, err, out)
	}
	return bin, nil
}

// live is the set of servers under test, so that an interrupt or the
// watchdog can kill every child and remove every temporary DataDir before
// the benchmark exits.
var live struct {
	mu   sync.Mutex
	envs map[*env]bool
}

// abortAll kills and reaps every live server and removes its directory. It
// runs on the way to os.Exit, concurrently with whatever the run was doing.
func abortAll() {
	live.mu.Lock()
	defer live.mu.Unlock()
	for e := range live.envs {
		if p := e.proc.Load(); p != nil {
			_ = p.cmd.Process.Kill() // already exited is fine
			<-p.done
		}
		os.RemoveAll(e.dir)
	}
	live.envs = nil
}

// proc is one repo-server incarnation.
type proc struct {
	cmd    *exec.Cmd
	stderr bytes.Buffer
	done   chan struct{} // closed once the process has been reaped
}

// env is one server under test: a DataDir, a loopback address, the
// keep-alive client pointed at it and the current incarnation, plus the
// usage of the incarnations that have already been killed.
type env struct {
	bin     string
	dir     string // DataDir's parent; removed by close
	addr    string
	tenants string // -tenants file, "" in open mode
	client  *http.Client
	proc    atomic.Pointer[proc] // nil between incarnations

	dead         usage // cpu and writes summed, peak RSS maxed, over killed incarnations
	incarnations int
	rss          rssWindows
}

// newEnv prepares a fresh DataDir and address; start launches the server.
func newEnv(bin, tmpRoot string, spec *work.Spec) (*env, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, spec.Name+"-")
	if err != nil {
		return nil, err
	}
	e := &env{bin: bin, dir: dir}
	live.mu.Lock()
	if live.envs == nil {
		live.envs = make(map[*env]bool)
	}
	live.envs[e] = true
	live.mu.Unlock()

	// Ask the kernel for a free loopback port, then hand it to the server.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	e.addr = ln.Addr().String()
	ln.Close()
	if spec.Tenants > 0 {
		e.tenants = filepath.Join(dir, "tenants.json")
		if err := os.WriteFile(e.tenants, work.TenantsJSON(spec.Tenants), 0o600); err != nil {
			e.close()
			return nil, err
		}
	}
	e.client = &http.Client{
		Timeout: 90 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: spec.Clients,
			DisableCompression:  true,
		},
	}
	return e, nil
}

func (e *env) dataDir() string { return filepath.Join(e.dir, "data") }

// start executes repo-server on the DataDir and returns at its first
// healthy response, polling every millisecond.
func (e *env) start() error {
	args := []string{"-quiet", "-addr", e.addr, "-data-dir", e.dataDir()}
	if e.tenants != "" {
		args = append(args, "-tenants", e.tenants)
	}
	p := &proc{cmd: exec.Command(e.bin, args...), done: make(chan struct{})}
	p.cmd.Stderr = &p.stderr
	if err := p.cmd.Start(); err != nil {
		return err
	}
	go func() {
		_ = p.cmd.Wait() // a killed child reports "signal: killed"; the state is in ProcessState
		close(p.done)
	}()
	e.proc.Store(p)
	e.incarnations++

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := e.client.Get("http://" + e.addr + "/api/v1/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("repo-server exited before it was healthy: %s", strings.TrimSpace(p.stderr.String()))
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			return errors.New("repo-server not healthy after 30s")
		}
	}
}

// kill sends SIGKILL to the current incarnation, reaps it and folds its
// usage into e.dead.
func (e *env) kill() {
	p := e.proc.Swap(nil)
	if p == nil {
		return
	}
	_ = p.cmd.Process.Kill() // already exited is fine: Wait below still reaps it
	<-p.done
	e.client.CloseIdleConnections()
	if ps := p.cmd.ProcessState; ps != nil {
		u := exitedUsage(ps)
		e.dead.cpu += u.cpu
		e.dead.writeBytes += u.writeBytes
		e.dead.peakRSSKB = max(e.dead.peakRSSKB, u.peakRSSKB)
		e.rss.incarnationEnded(u.peakRSSKB)
	}
}

// restart is crash_recover's crash: SIGKILL, then a new process on the
// same DataDir and address. It returns kill → first healthy response.
func (e *env) restart() (time.Duration, error) {
	t0 := time.Now()
	e.kill()
	if err := e.start(); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// usage sums all incarnations so far, the live one read from /proc.
func (e *env) usage() (usage, error) {
	u := e.dead
	if p := e.proc.Load(); p != nil {
		live, err := liveUsage(p.cmd.Process.Pid)
		if err != nil {
			return u, err
		}
		u.cpu += live.cpu
		u.writeBytes += live.writeBytes
		u.peakRSSKB = max(u.peakRSSKB, live.peakRSSKB)
	}
	return u, nil
}

// close stops the server and removes the DataDir.
func (e *env) close() {
	e.kill()
	os.RemoveAll(e.dir)
	live.mu.Lock()
	delete(live.envs, e)
	live.mu.Unlock()
}

// RSS is sampled every rssEvery during the measured phase; rssWindow
// samples make one window, whose peak is the largest of them.
const (
	rssEvery  = 50 * time.Millisecond
	rssWindow = 10
)

// rssWindows collects the peak resident set of successive windows of the
// measured phase. A window ends after rssWindow samples, or when the
// server process ends (crash_recover kills it every few tens of
// milliseconds): then the window is that incarnation's life and its peak
// the exact ru_maxrss. The gated figure is the median window peak. The
// maximum over the whole run is an extreme value that garbage-collector
// timing moves by a quarter from run to run on fleet_scenario; the median
// window peak moves with the heap just the same and repeats.
type rssWindows struct {
	mu    sync.Mutex
	on    bool
	peaks []float64 // KB
	cur   int64
	n     int
}

func (w *rssWindows) sample(kb int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.cur = max(w.cur, kb)
	if w.n++; w.n == rssWindow {
		w.peaks = append(w.peaks, float64(w.cur))
		w.cur, w.n = 0, 0
	}
}

func (w *rssWindows) incarnationEnded(maxKB int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.on {
		w.peaks = append(w.peaks, float64(maxKB))
		w.cur, w.n = 0, 0
	}
}

// watchRSS samples the live incarnation's resident set until the returned
// function is called; that returns the window peaks in KB.
func (e *env) watchRSS() (finish func() []float64) {
	w := &e.rss
	w.mu.Lock()
	w.on = true
	w.mu.Unlock()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if p := e.proc.Load(); p != nil {
					if kb, err := liveRSSKB(p.cmd.Process.Pid); err == nil {
						w.sample(kb)
					}
				}
			}
		}
	}()
	return func() []float64 {
		close(stop)
		<-done
		w.mu.Lock()
		defer w.mu.Unlock()
		w.on = false
		return w.peaks
	}
}

// netDoer is the over-the-wire work.Doer: one keep-alive connection per
// client, the body read to EOF into a buffer the client reuses.
type netDoer struct {
	client *http.Client
	base   string
	buf    bytes.Buffer
}

func (d *netDoer) Do(r *work.Request) (int, []byte, error) {
	var body io.Reader
	if r.Body != "" {
		body = strings.NewReader(r.Body)
	}
	req, err := http.NewRequestWithContext(context.Background(), r.Method, d.base+r.Path, body)
	if err != nil {
		return 0, nil, err
	}
	if r.Body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	if r.Key != "" {
		req.Header.Set("Authorization", "Bearer "+r.Key)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	d.buf.Reset()
	_, err = d.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, d.buf.Bytes(), nil
}
