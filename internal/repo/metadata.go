package repo

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"xcbc/internal/rpm"
)

// PackageRecord is one entry in repository metadata, carrying enough for a
// client to resolve dependencies and verify integrity without the payload.
type PackageRecord struct {
	Name      string   `json:"name"`
	EVR       string   `json:"evr"`
	Arch      string   `json:"arch"`
	Summary   string   `json:"summary,omitempty"`
	Category  string   `json:"category,omitempty"`
	SizeBytes int64    `json:"size"`
	Checksum  string   `json:"sha256"`
	Provides  []string `json:"provides,omitempty"`
	Requires  []string `json:"requires,omitempty"`
	Conflicts []string `json:"conflicts,omitempty"`
	Obsoletes []string `json:"obsoletes,omitempty"`
}

// Metadata is the repository index — the analogue of repomd.xml + primary.xml
// in a Yum repository, rendered as JSON.
type Metadata struct {
	RepoID    string          `json:"repo_id"`
	Name      string          `json:"name"`
	Revision  int             `json:"revision"`
	Generated time.Time       `json:"generated"`
	Packages  []PackageRecord `json:"packages"`
}

// Checksum computes the integrity checksum of a package from its identity
// and payload-determining fields. Real RPMs hash the payload; our packages
// are synthetic, so the NEVRA + size + file list stand in for it.
func Checksum(p *rpm.Package) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%d", p.NEVRA(), p.SizeBytes)
	for _, f := range p.Files {
		fmt.Fprintf(h, "|%s", f)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func capStrings(caps []rpm.Capability) []string {
	if len(caps) == 0 {
		return nil
	}
	out := make([]string, len(caps))
	for i, c := range caps {
		out[i] = c.String()
	}
	return out
}

// GenerateMetadata renders the repository's current contents as metadata.
// The generated timestamp is injected so simulations stay deterministic.
func (r *Repository) GenerateMetadata(now time.Time) *Metadata {
	pkgs := r.All()
	md := &Metadata{
		RepoID:    r.ID,
		Name:      r.Name,
		Revision:  r.Revision(),
		Generated: now,
		Packages:  make([]PackageRecord, 0, len(pkgs)),
	}
	for _, p := range pkgs {
		md.Packages = append(md.Packages, PackageRecord{
			Name:      p.Name,
			EVR:       p.EVR.String(),
			Arch:      string(p.Arch),
			Summary:   p.Summary,
			Category:  p.Category,
			SizeBytes: p.SizeBytes,
			Checksum:  Checksum(p),
			Provides:  capStrings(p.Provides),
			Requires:  capStrings(p.Requires),
			Conflicts: capStrings(p.Conflicts),
			Obsoletes: capStrings(p.Obsoletes),
		})
	}
	sort.Slice(md.Packages, func(i, j int) bool {
		if md.Packages[i].Name != md.Packages[j].Name {
			return md.Packages[i].Name < md.Packages[j].Name
		}
		return md.Packages[i].EVR < md.Packages[j].EVR
	})
	return md
}

// MarshalJSON is provided on Metadata implicitly via struct tags; EncodeJSON
// renders it with stable indentation for serving and archival.
func (m *Metadata) EncodeJSON() ([]byte, error) {
	return json.MarshalIndent(m, "", "  ")
}

// DecodeMetadata parses metadata JSON produced by EncodeJSON.
func DecodeMetadata(data []byte) (*Metadata, error) {
	var m Metadata
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("repo: bad metadata: %w", err)
	}
	return &m, nil
}

// Verify checks each record's checksum against a freshly computed one for the
// corresponding package in the repository; it returns the NEVRAs that fail
// (missing or corrupted). This models gpgcheck=1.
func (m *Metadata) Verify(r *Repository) []string {
	var bad []string
	for _, rec := range m.Packages {
		found := false
		for _, p := range r.Get(rec.Name) {
			if p.EVR.String() == rec.EVR && string(p.Arch) == rec.Arch {
				found = true
				if Checksum(p) != rec.Checksum {
					bad = append(bad, fmt.Sprintf("%s-%s.%s", rec.Name, rec.EVR, rec.Arch))
				}
				break
			}
		}
		if !found {
			bad = append(bad, fmt.Sprintf("%s-%s.%s (missing)", rec.Name, rec.EVR, rec.Arch))
		}
	}
	return bad
}
