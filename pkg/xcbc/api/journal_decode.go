package api

// Recovery's decoder for the deployment side of the journal (DESIGN.md).

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

// decodeJSON decodes data into v, with the reader if it takes v's type.
func decodeJSON(data []byte, v any) error {
	r := reader{b: data}
	if !r.into(v) {
		return json.Unmarshal(data, v)
	}
	if r.peek(); r.i < len(r.b) {
		r.fail("trailing data")
	}
	return r.err
}

// reader walks one JSON document; its first error sticks and ends the walk.
type reader struct {
	b        []byte
	i, depth int // depth counts open objects and arrays
	err      error
}

func (r *reader) fail(what string) {
	r.err = cmp.Or(r.err, fmt.Errorf("journal JSON: %s at offset %d", what, r.i))
	r.i = len(r.b)
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (r *reader) peek() byte {
	if r.i < len(r.b) && r.b[r.i] > ' ' {
		return r.b[r.i]
	}
	for ; r.i < len(r.b); r.i++ {
		if c := r.b[r.i]; c > ' ' || strings.IndexByte(" \t\n\r", c) < 0 {
			return c
		}
	}
	return 0
}

// literal consumes lit if it is next.
func (r *reader) literal(lit string) bool {
	if r.peek() != lit[0] || !bytes.HasPrefix(r.b[r.i:], []byte(lit)) {
		return false
	}
	r.i += len(lit)
	return true
}

// each calls member per member of the object or array open and end bracket.
func (r *reader) each(open, end byte, member func()) {
	if r.peek() != open || r.depth == 10000 {
		r.fail("want " + string(open) + " at depth at most 10000")
		return
	}
	r.i++
	r.depth++
	for n := 0; r.err == nil; n++ {
		if r.peek() == end {
			r.i++
			r.depth--
			return
		}
		if n > 0 && !r.literal(",") {
			r.fail("want , or " + string(end))
		}
		member()
	}
}

// object calls field per member of an object, at its value; null is none.
func (r *reader) object(field func(key []byte)) {
	if !r.literal("null") {
		r.each('{', '}', func() {
			if key := r.quoted(); r.peek() == ':' {
				r.i++
				field(key)
			} else {
				r.fail("want :")
			}
		})
	}
}

// fields decodes an object into the fields ptrs, named names, matched exactly or folded.
func (r *reader) fields(names []string, ptrs ...any) {
	r.object(func(key []byte) {
		i := slices.Index(names, string(key))
		if i < 0 {
			i = slices.IndexFunc(names, func(n string) bool { return strings.EqualFold(string(key), n) })
		}
		if i < 0 {
			r.skip()
			return
		}
		switch p := ptrs[i].(type) {
		case *string:
			r.str(p)
		case *int:
			r.int(p)
		case *time.Time:
			r.raw(p.UnmarshalJSON) // what encoding/json hands it: the value's bytes
		case *[]string:
			list(r, p, func(s *string, r *reader) { r.str(s) })
		case *[]eventInfo:
			list(r, p, func(e *eventInfo, r *reader) { r.into(e) })
		case *[]clusterOpRec:
			list(r, p, func(o *clusterOpRec, r *reader) { r.into(o) })
		case **submitJobRequest:
			ptr(r, p)
		case **depSummary:
			ptr(r, p)
		case *map[string]*depMirror:
			if r.literal("null") {
				*p = nil
				return
			}
			if *p == nil {
				*p = make(map[string]*depMirror)
			}
			r.object(func(id []byte) {
				d := new(depMirror)
				if (*p)[string(id)] = d; r.literal("null") {
					r.fail("null deployment row") // encoding/json's nil row would crash materialize
				}
				r.into(d)
			})
		default:
			if !r.into(p) { // the snapshot's fleets and campaigns
				r.raw(func(data []byte) error { return json.Unmarshal(data, p) })
			}
		}
	})
}

// list decodes an array as encoding/json does: into the elements the slice
// has or had, then cut; [] is a new empty slice and null a nil one.
func list[T any](r *reader, p *[]T, elem func(*T, *reader)) {
	if r.literal("null") {
		*p = nil
		return
	}
	s := (*p)[:0]
	r.each('[', ']', func() {
		s = slices.Grow(s, 1)[:len(s)+1] // reflect.Value.Grow's growth, and any stale element
		elem(&s[len(s)-1], r)
	})
	if len(s) == 0 {
		s = []T{}
	}
	*p = s
}

// ptr decodes an object into **p, reusing *p as encoding/json does; null is nil.
func ptr[T any](r *reader, p **T) {
	if r.literal("null") {
		*p = nil
		return
	}
	*p = cmp.Or(*p, new(T))
	r.into(*p)
}

// quoted reads a string: the input's own bytes if there is nothing to
// unquote, else what encoding/json makes of it (U+FFFD for invalid UTF-8).
func (r *reader) quoted() []byte {
	if r.peek() != '"' {
		r.fail("want a string")
		return nil
	}
	plain := true
	for i := r.i + 1; i < len(r.b); i++ {
		switch c := r.b[i]; {
		case c == '"':
			s := r.b[r.i : i+1]
			r.i = i + 1
			if plain {
				return s[1 : len(s)-1]
			}
			var out string
			if err := json.Unmarshal(s, &out); err != nil {
				r.fail(err.Error())
			}
			return []byte(out)
		case c == '\\':
			i++
			fallthrough
		case c < ' ' || c >= utf8.RuneSelf:
			plain = false
		}
	}
	r.fail("unterminated string")
	return nil
}

// str decodes a string into *p; null leaves it as is.
func (r *reader) str(p *string) {
	if !r.literal("null") {
		*p = string(r.quoted())
	}
}

// token consumes a number, true, false or null, up to the next delimiter.
func (r *reader) token() []byte {
	r.peek()
	start := r.i
	for r.i < len(r.b) && strings.IndexByte(",:{}[]\" \t\n\r", r.b[r.i]) < 0 {
		r.i++
	}
	return r.b[start:r.i]
}

// int decodes an integer; Atoi also takes a leading + or 0, JSON does not.
func (r *reader) int(p *int) {
	if r.literal("null") {
		return
	}
	tok := r.token()
	n, err := strconv.Atoi(string(tok))
	if abs := bytes.TrimPrefix(tok, []byte("-")); err != nil || tok[0] == '+' || len(abs) > 1 && abs[0] == '0' {
		r.fail("want an integer")
	}
	*p = n
}

// skip checks and consumes one value of any kind.
func (r *reader) skip() {
	switch r.peek() {
	case '{':
		r.object(func([]byte) { r.skip() })
	case '[':
		list(r, new([]struct{}), func(_ *struct{}, r *reader) { r.skip() })
	case '"':
		r.quoted()
	default:
		if !json.Valid(r.token()) {
			r.fail("want a value")
		}
	}
}

// raw checks the next value and hands its bytes, undecoded, to use.
func (r *reader) raw(use func([]byte) error) {
	r.peek()
	start := r.i
	if r.skip(); r.err == nil {
		if err := use(r.b[start:r.i]); err != nil {
			r.fail(err.Error())
		}
	}
}

// into decodes into v if it is a deployment-side type, reporting whether.
func (r *reader) into(v any) bool {
	switch v := v.(type) {
	case *mirror:
		r.fields([]string{"deployments", "fleets", "campaigns", "next_id", "next_fleet_id", "next_campaign_id"},
			&v.Deployments, &v.Fleets, &v.Campaigns, &v.NextID, &v.NextFleetID, &v.NextCampaignID)
	case *depMirror:
		r.fields([]string{"created", "events", "ops", "state", "error", "summary"}, &v.Created, &v.Events, &v.Ops, &v.State, &v.Error, &v.Summary)
	case *depCreatedRec:
		r.fields([]string{"id", "path", "req", "created", "cluster", "site", "nodes"},
			&v.ID, &v.Path, &v.Req, &v.Created, &v.Cluster, &v.Site, &v.Nodes)
	case *createDeploymentRequest:
		r.fields([]string{"cluster", "path", "scheduler", "rolls", "profiles", "node_count", "parallelism", "retries"},
			&v.Cluster, &v.Path, &v.Scheduler, &v.Rolls, &v.Profiles, &v.NodeCount, &v.Parallelism, &v.Retries)
	case *eventInfo:
		r.fields([]string{"seq", "stage", "node", "message", "packages", "elapsed"},
			&v.Seq, &v.Stage, &v.Node, &v.Message, &v.Packages, &v.Elapsed)
	case *depEventRec:
		r.fields([]string{"id", "event"}, &v.ID, &v.Event)
	case *depSettledRec:
		r.fields([]string{"id", "state", "error", "events", "summary"}, &v.ID, &v.State, &v.Error, &v.Events, &v.Summary)
	case *depSummary:
		r.fields([]string{"scheduler", "packages_installed", "install_duration", "quarantined", "compat_passed", "compat_total", "next_cursor"},
			&v.Scheduler, &v.PackagesInstalled, &v.InstallDuration, &v.Quarantined, &v.CompatPassed, &v.CompatTotal, &v.NextCursor)
	case *depDeletedRec:
		r.fields([]string{"id"}, &v.ID)
	case *clusterOpRec:
		r.fields([]string{"id", "op", "job", "job_id", "duration", "policy", "at", "compat_passed", "compat_total"},
			&v.ID, &v.Op, &v.Job, &v.JobID, &v.Duration, &v.Policy, &v.At, &v.CompatPassed, &v.CompatTotal)
	case *submitJobRequest:
		r.fields([]string{"name", "user", "cores", "walltime", "runtime", "script"},
			&v.Name, &v.User, &v.Cores, &v.Walltime, &v.Runtime, &v.Script)
	default:
		return false
	}
	return true
}
