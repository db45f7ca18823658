// Package rpm implements an RPM-like software packaging model: packages
// identified by name-epoch:version-release.arch, capabilities with versioned
// relations, an installed-package database per node, and transactional
// install/upgrade/erase operations.
//
// The version comparison algorithm is a faithful reimplementation of
// rpmvercmp, the segment-based comparison used by RPM and Yum. XNIT is a Yum
// repository, so update semantics in this reproduction hinge on this
// comparison behaving exactly like the original.
package rpm

import (
	"fmt"
	"strings"
)

// EVR is an epoch-version-release triple, the versioned identity of a package
// build.
type EVR struct {
	Epoch   int
	Version string
	Release string
}

// ParseEVR parses strings like "2:1.4.3-5.el6", "1.2-3", or "1.2".
func ParseEVR(s string) (EVR, error) {
	var evr EVR
	rest := s
	if i := strings.IndexByte(rest, ':'); i >= 0 {
		var epoch int
		if _, err := fmt.Sscanf(rest[:i+1], "%d:", &epoch); err != nil || epoch < 0 {
			return EVR{}, fmt.Errorf("rpm: invalid epoch in %q", s)
		}
		evr.Epoch = epoch
		rest = rest[i+1:]
	}
	if i := strings.LastIndexByte(rest, '-'); i >= 0 {
		evr.Version = rest[:i]
		evr.Release = rest[i+1:]
		// String omits an empty release, so "1-2-" would print as "1-2"
		// and parse back as a different EVR.
		if evr.Release == "" {
			return EVR{}, fmt.Errorf("rpm: empty release in %q", s)
		}
	} else {
		evr.Version = rest
	}
	if evr.Version == "" {
		return EVR{}, fmt.Errorf("rpm: empty version in %q", s)
	}
	return evr, nil
}

// MustParseEVR is ParseEVR that panics on error, for static catalog data.
func MustParseEVR(s string) EVR {
	evr, err := ParseEVR(s)
	if err != nil {
		panic(err)
	}
	return evr
}

// String renders the EVR in canonical form, omitting a zero epoch and an
// empty release.
func (e EVR) String() string {
	var b strings.Builder
	if e.Epoch != 0 {
		fmt.Fprintf(&b, "%d:", e.Epoch)
	}
	b.WriteString(e.Version)
	if e.Release != "" {
		b.WriteByte('-')
		b.WriteString(e.Release)
	}
	return b.String()
}

// Compare orders two EVRs: negative if e < o, zero if equal, positive if
// e > o. Epoch dominates, then version, then release, each compared with
// rpmvercmp semantics.
func (e EVR) Compare(o EVR) int {
	if e.Epoch != o.Epoch {
		if e.Epoch < o.Epoch {
			return -1
		}
		return 1
	}
	if c := Vercmp(e.Version, o.Version); c != 0 {
		return c
	}
	return Vercmp(e.Release, o.Release)
}

// Vercmp compares two version strings using the rpmvercmp algorithm:
//
//   - The strings are split into alternating alphabetic and numeric segments;
//     separators (anything else) only delimit segments.
//   - Numeric segments compare as integers (leading zeros stripped; longer
//     digit strings are larger).
//   - A numeric segment is always newer than an alphabetic one.
//   - A tilde segment sorts before everything, including the empty string
//     (so "1.0~rc1" < "1.0").
//   - A caret segment sorts after the empty string but before any other
//     suffix (so "1.0" < "1.0^post" < "1.0.1").
//   - If all common segments are equal, the string with segments remaining is
//     newer.
//
// Returns -1, 0, or 1.
func Vercmp(a, b string) int {
	if a == b {
		return 0
	}
	ia, ib := 0, 0
	for ia < len(a) || ib < len(b) {
		// Skip separators, but handle tilde and caret specially.
		for ia < len(a) && !isAlnum(a[ia]) && a[ia] != '~' && a[ia] != '^' {
			ia++
		}
		for ib < len(b) && !isAlnum(b[ib]) && b[ib] != '~' && b[ib] != '^' {
			ib++
		}
		// Tilde: sorts before anything, even end-of-string.
		ta := ia < len(a) && a[ia] == '~'
		tb := ib < len(b) && b[ib] == '~'
		if ta || tb {
			if !tb {
				return -1
			}
			if !ta {
				return 1
			}
			ia++
			ib++
			continue
		}
		// Caret: sorts after end-of-string but before any other segment.
		ca := ia < len(a) && a[ia] == '^'
		cb := ib < len(b) && b[ib] == '^'
		if ca || cb {
			if ca && cb {
				ia++
				ib++
				continue
			}
			// One has caret. If the other is exhausted, caret side is newer;
			// otherwise caret side is older.
			if ca {
				if ib >= len(b) {
					return 1
				}
				return -1
			}
			if ia >= len(a) {
				return -1
			}
			return 1
		}
		if ia >= len(a) || ib >= len(b) {
			break
		}
		// Grab the next segment from each: digits or letters.
		sa, numA := segment(a, &ia)
		sb, numB := segment(b, &ib)
		if numA != numB {
			// Numeric beats alphabetic.
			if numA {
				return 1
			}
			return -1
		}
		if numA {
			sa = strings.TrimLeft(sa, "0")
			sb = strings.TrimLeft(sb, "0")
			if len(sa) != len(sb) {
				if len(sa) < len(sb) {
					return -1
				}
				return 1
			}
		}
		if c := strings.Compare(sa, sb); c != 0 {
			if c < 0 {
				return -1
			}
			return 1
		}
	}
	// All common segments equal: the one with leftovers is newer.
	if ia >= len(a) && ib >= len(b) {
		return 0
	}
	if ia < len(a) {
		return 1
	}
	return -1
}

// segment extracts a maximal run of digits or letters starting at *i,
// advancing *i past it, and reports whether it was numeric. The caller
// guarantees a[*i] is alphanumeric.
func segment(s string, i *int) (string, bool) {
	start := *i
	if isDigit(s[start]) {
		for *i < len(s) && isDigit(s[*i]) {
			*i++
		}
		return s[start:*i], true
	}
	for *i < len(s) && isAlpha(s[*i]) {
		*i++
	}
	return s[start:*i], false
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isAlpha(c byte) bool { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }
func isAlnum(c byte) bool { return isDigit(c) || isAlpha(c) }
