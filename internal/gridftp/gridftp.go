// Package gridftp models the XSEDE data-movement tools the XCBC build
// installs (Table 2's "XSEDE Tools" row: Globus Connect Server, Genesis II,
// GFFS): named transfer endpoints with bandwidth, a transfer service with
// integrity verification and retry driven by the discrete-event engine, and
// a GFFS-style global namespace that mounts endpoints into one tree.
//
// This is the campus-bridging payoff the paper is about: a researcher
// stages data between a campus XCBC cluster and an XSEDE resource with the
// same tools both ends.
package gridftp

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"time"

	"xcbc/internal/sim"
)

// FileInfo is one file on an endpoint.
type FileInfo struct {
	Path     string
	Size     int64
	Checksum string
}

// Endpoint is a Globus Connect Server-style transfer endpoint.
type Endpoint struct {
	Name       string
	Site       string
	WANGbits   float64 // WAN-facing bandwidth
	files      map[string]FileInfo
	faultEvery int // every Nth chunk transfer fails (0 = never); test hook
	sent       int
}

// NewEndpoint creates an endpoint with the given WAN bandwidth.
func NewEndpoint(name, site string, wanGbits float64) *Endpoint {
	return &Endpoint{Name: name, Site: site, WANGbits: wanGbits, files: make(map[string]FileInfo)}
}

// checksum derives a deterministic content checksum from path and size
// (file bodies are not modelled).
func checksum(path string, size int64) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%s|%d", path, size)))
	return hex.EncodeToString(h[:8])
}

// Put registers a file on the endpoint.
func (e *Endpoint) Put(path string, size int64) FileInfo {
	fi := FileInfo{Path: path, Size: size, Checksum: checksum(path, size)}
	e.files[path] = fi
	return fi
}

// Stat looks a file up.
func (e *Endpoint) Stat(path string) (FileInfo, bool) {
	fi, ok := e.files[path]
	return fi, ok
}

// List returns files under a prefix, sorted by path.
func (e *Endpoint) List(prefix string) []FileInfo {
	var out []FileInfo
	for p, fi := range e.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, fi)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// InjectFaults makes every nth chunk fail, exercising the retry path.
//
//detlint:reached support: TestTransferRetriesOnFault and TestTransferExhaustsRetries fail chunks to reach the retry and give-up paths
func (e *Endpoint) InjectFaults(everyN int) { e.faultEvery = everyN }

// TransferState tracks a transfer's lifecycle.
type TransferState int

// Transfer states.
const (
	TransferQueued TransferState = iota
	TransferActive
	TransferSucceeded
	TransferFailed
)

func (s TransferState) String() string {
	switch s {
	case TransferQueued:
		return "queued"
	case TransferActive:
		return "active"
	case TransferSucceeded:
		return "succeeded"
	case TransferFailed:
		return "failed"
	}
	return "?"
}

// Transfer is one file movement between endpoints.
type Transfer struct {
	ID       int
	Src, Dst *Endpoint
	SrcPath  string
	DstPath  string
	State    TransferState
	Bytes    int64
	Retries  int
	Started  sim.Time
	Finished sim.Time
	Err      error
	Verified bool
}

// Duration returns the modelled wall time of the transfer.
func (t *Transfer) Duration() time.Duration { return (t.Finished - t.Started).Duration() }

// Service is the transfer manager (the Globus transfer service analogue).
type Service struct {
	Engine     *sim.Engine
	MaxRetries int
	// WANLatency is the per-request setup cost.
	WANLatency time.Duration

	nextID int
}

// NewService creates a transfer service on the engine.
func NewService(eng *sim.Engine) *Service {
	return &Service{Engine: eng, MaxRetries: 3, WANLatency: 200 * time.Millisecond, nextID: 1}
}

// Submit queues a transfer and schedules its execution. The result is
// available once the engine runs past the transfer's completion.
func (s *Service) Submit(src *Endpoint, srcPath string, dst *Endpoint, dstPath string) (*Transfer, error) {
	fi, ok := src.Stat(srcPath)
	if !ok {
		return nil, fmt.Errorf("gridftp: %s has no file %s", src.Name, srcPath)
	}
	t := &Transfer{
		ID: s.nextID, Src: src, Dst: dst, SrcPath: srcPath, DstPath: dstPath,
		State: TransferQueued, Bytes: fi.Size,
	}
	s.nextID++
	s.Engine.After(0, fmt.Sprintf("xfer-%d-start", t.ID), func(e *sim.Engine) {
		s.run(t, fi)
	})
	return t, nil
}

// run models the transfer: setup latency + size over the bottleneck
// bandwidth, an integrity check at the destination, and retries on fault.
func (s *Service) run(t *Transfer, fi FileInfo) {
	t.State = TransferActive
	t.Started = s.Engine.Now()
	gbits := t.Src.WANGbits
	if t.Dst.WANGbits < gbits {
		gbits = t.Dst.WANGbits
	}
	if gbits <= 0 {
		t.State = TransferFailed
		t.Err = fmt.Errorf("gridftp: no WAN bandwidth between %s and %s", t.Src.Name, t.Dst.Name)
		t.Finished = s.Engine.Now()
		return
	}
	secsPerAttempt := s.WANLatency.Seconds() + float64(fi.Size)/(gbits*1e9/8)
	attempt := func() bool {
		t.Src.sent++
		if t.Src.faultEvery > 0 && t.Src.sent%t.Src.faultEvery == 0 {
			return false
		}
		return true
	}
	var tryOnce func(*sim.Engine)
	tryOnce = func(e *sim.Engine) {
		e.After(time.Duration(secsPerAttempt*float64(time.Second)), fmt.Sprintf("xfer-%d-done", t.ID), func(e *sim.Engine) {
			if attempt() {
				dst := t.Dst.Put(t.DstPath, fi.Size)
				// Integrity: recomputed checksum must match the source's
				// content checksum modulo path (content identity = size).
				t.Verified = dst.Size == fi.Size && dst.Checksum == checksum(t.DstPath, fi.Size)
				t.State = TransferSucceeded
				t.Finished = e.Now()
				return
			}
			t.Retries++
			if t.Retries > s.MaxRetries {
				t.State = TransferFailed
				t.Err = fmt.Errorf("gridftp: transfer %d exceeded %d retries", t.ID, s.MaxRetries)
				t.Finished = e.Now()
				return
			}
			tryOnce(e)
		})
	}
	tryOnce(s.Engine)
}

// Namespace is the GFFS global directory tree: grid paths mapping to
// endpoint mounts.
type Namespace struct {
	mounts map[string]*Endpoint // grid prefix -> endpoint
}

// NewNamespace creates an empty GFFS tree.
func NewNamespace() *Namespace {
	return &Namespace{mounts: make(map[string]*Endpoint)}
}

// Mount attaches an endpoint at a grid prefix such as
// "/xsede/site/littlefe". Prefixes must be absolute and unique.
func (ns *Namespace) Mount(prefix string, ep *Endpoint) error {
	if !strings.HasPrefix(prefix, "/") {
		return fmt.Errorf("gffs: mount prefix %q must be absolute", prefix)
	}
	prefix = strings.TrimSuffix(prefix, "/")
	if _, exists := ns.mounts[prefix]; exists {
		return fmt.Errorf("gffs: %s already mounted", prefix)
	}
	ns.mounts[prefix] = ep
	return nil
}

// Resolve maps a grid path to (endpoint, endpoint-local path) using the
// longest matching mount prefix.
func (ns *Namespace) Resolve(gridPath string) (*Endpoint, string, error) {
	best := ""
	for prefix := range ns.mounts { //detlint:ordered longest match wins and equal-length matching prefixes are identical strings
		if strings.HasPrefix(gridPath, prefix+"/") || gridPath == prefix {
			if len(prefix) > len(best) {
				best = prefix
			}
		}
	}
	if best == "" {
		return nil, "", fmt.Errorf("gffs: no mount covers %s", gridPath)
	}
	local := strings.TrimPrefix(gridPath, best)
	if local == "" {
		local = "/"
	}
	return ns.mounts[best], local, nil
}

// Copy submits a transfer between two grid paths through the service.
func (ns *Namespace) Copy(s *Service, srcGrid, dstGrid string) (*Transfer, error) {
	srcEp, srcLocal, err := ns.Resolve(srcGrid)
	if err != nil {
		return nil, err
	}
	dstEp, dstLocal, err := ns.Resolve(dstGrid)
	if err != nil {
		return nil, err
	}
	return s.Submit(srcEp, srcLocal, dstEp, dstLocal)
}
