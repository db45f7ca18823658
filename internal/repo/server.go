package repo

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"
)

// Server exposes one or more repositories over HTTP the way the XSEDE
// Campus Bridging team served cb-repo.iu.xsede.org: a README at the root,
// per-repository metadata, and per-package records.
//
// Routes:
//
//	GET /                                  — README listing repositories
//	GET /{repo}/repodata/repomd.json       — full metadata
//	GET /{repo}/packages/{nevra}.rpm       — package record (the "download")
type Server struct {
	source func() []*Repository
	clock  func() time.Time
}

// NewSetServer builds a server over a live Set: repositories added to or
// removed from the set while serving appear in (or vanish from) the routes
// on the next request. All configured repositories are served; the set's
// enabled flags describe clients, not the server.
func NewSetServer(clock func() time.Time, set *Set) *Server {
	if clock == nil {
		// No wall-clock fallback: served timestamps feed revision metadata
		// that replay compares, so the clock must always be injected.
		panic("repo: NewSetServer requires a clock; pass the simulation clock or a fixed test clock")
	}
	return &Server{clock: clock, source: func() []*Repository {
		configs := set.Configs()
		repos := make([]*Repository, 0, len(configs))
		for _, c := range configs {
			repos = append(repos, c.Repo)
		}
		return repos
	}}
}

// lookup returns the served repository with the given ID, or nil.
func (s *Server) lookup(id string) *Repository {
	for _, r := range s.source() {
		if r.ID == id {
			return r
		}
	}
	return nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	path := strings.Trim(req.URL.Path, "/")
	if path == "" {
		s.serveReadme(w)
		return
	}
	parts := strings.Split(path, "/")
	r := s.lookup(parts[0])
	if r == nil {
		http.Error(w, "unknown repository", http.StatusNotFound)
		return
	}
	switch {
	case len(parts) == 3 && parts[1] == "repodata" && parts[2] == "repomd.json":
		md := r.GenerateMetadata(s.clock())
		data, err := md.EncodeJSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	case len(parts) == 3 && parts[1] == "packages":
		nevra := strings.TrimSuffix(parts[2], ".rpm")
		for _, p := range r.All() {
			if p.NEVRA() == nevra {
				w.Header().Set("Content-Type", "application/json")
				json.NewEncoder(w).Encode(map[string]any{
					"nevra":  p.NEVRA(),
					"size":   p.SizeBytes,
					"sha256": Checksum(p),
				})
				return
			}
		}
		http.Error(w, "package not found", http.StatusNotFound)
	default:
		http.Error(w, "not found", http.StatusNotFound)
	}
}

func (s *Server) serveReadme(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "XSEDE Yum Repository (readme.xsederepo)")
	fmt.Fprintln(w, "")
	fmt.Fprintln(w, "To use: install yum-plugin-priorities, then create")
	fmt.Fprintln(w, "/etc/yum.repos.d/xsede.repo with:")
	fmt.Fprintln(w, "")
	for _, r := range s.sortedRepos() {
		fmt.Fprintf(w, "  [%s]\n", r.ID)
		fmt.Fprintf(w, "  name=%s\n", r.Name)
		fmt.Fprintf(w, "  baseurl=%s\n", r.BaseURL)
		fmt.Fprintf(w, "  enabled=1\n  priority=50\n  gpgcheck=1\n\n")
	}
}

func (s *Server) sortedRepos() []*Repository {
	out := append([]*Repository(nil), s.source()...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
