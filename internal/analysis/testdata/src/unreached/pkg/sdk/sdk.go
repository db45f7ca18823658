// Package sdk is the fixture module's public package: the rule holds pkg/
// to the same clauses as internal/, and checks the fields of both.
package sdk

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// Open is reached from cmd/app.
func Open(name string) *Client {
	c := &Client{Name: name, Hits: 1, labels: map[string]string{}, Kept: 1, Stale: 2}
	c.Hits = 2
	c.labels["name"] = name
	c.log = append(c.log, "opened")
	c.opens++
	return c
}

// Unused is an SDK name nothing reaches.
func Unused() {} // want "Unused is reached by no non-test file"

// Client has one field per clause of the field rule.
type Client struct {
	Name   string            // read by cmd/app
	Hits   int               // want "field Client.Hits is read by no non-test file \\(2 writes\\)"
	labels map[string]string // want "field Client.labels is read by no non-test file"
	log    []string          // want "field Client.log is read by no non-test file"
	opens  int               // want "field Client.opens is read by no non-test file"
	Tagged int               `json:"tagged"`
	// Kept is written here and read only by tests.
	//
	//detlint:reached support: a test of Open reads it
	Kept int
	// Stale is marked although cmd/app reads it.
	//
	//detlint:reached reference: a test that was deleted
	Stale int // want "field Client.Stale is marked //detlint:reached but a non-test file reads it"
}

// wire and view are converted into each other, which reads every field of
// both.
type wire struct{ A, B int }

type view struct{ A, B int }

// Convert is reached from cmd/app.
func Convert(a, b int) int {
	v := view(wire{A: a, B: b})
	_ = v
	return a + b
}

// point is printed, envelope is encoded: fmt reads every field of what it
// is given, and of the types inside it; encoding/json reads the exported
// ones, and those of an embedded struct.
type point struct {
	X, Y int
	tag  label
}

type label struct{ text string }

type envelope struct {
	meta
	Body  body
	cache *cached // want "field envelope.cache is read by no non-test file \\(1 writes\\)"
}

type meta struct{ Version int }

type body struct{ N int }

type cached struct{ Hits int } // want "field cached.Hits is read by no non-test file \\(1 writes\\)"

// shared is encoded, then printed: fmt reads the field encoding/json passed
// over.
type shared struct{ note string }

// Print is reached from cmd/app.
func Print() ([]byte, error) {
	out, err := json.Marshal(&envelope{Body: body{N: 3}, cache: &cached{Hits: 1}})
	if _, err := json.Marshal(shared{note: "n"}); err != nil {
		return nil, err
	}
	fmt.Println(point{X: 1, Y: 2, tag: label{"t"}}, shared{note: "n"})
	return out, err
}

// base's field is read through Derived, which embeds it.
type base struct{ ID int }

// Derived is reached from cmd/app.
type Derived struct{ base }

// NewDerived is reached from cmd/app.
func NewDerived() Derived { return Derived{base{ID: 7}} }

// The standard library asserts these interfaces inside function bodies,
// where the rule cannot see them; each method below is needed by one.

type wrapped struct{ err error }

func (w *wrapped) Error() string { return "wrapped" }

// Unwrap is needed by errors.Is and errors.As.
func (w *wrapped) Unwrap() error { return w.err }

type joined struct{ errs []error }

func (j *joined) Error() string { return "joined" }

// Unwrap is needed by errors.Is and errors.As on a joined error.
func (j *joined) Unwrap() []error { return j.errs }

type code int

func (c code) Error() string { return "code" }

// Is is needed by errors.Is.
func (c code) Is(target error) bool { return target == errCode }

// As is needed by errors.As.
func (c code) As(target any) bool { return false }

var errCode = errors.New("code")

type recorder struct{ http.ResponseWriter }

// Unwrap is needed by http.ResponseController.
func (r *recorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// Errors is reached from cmd/app.
func Errors(w http.ResponseWriter) []error {
	_ = http.NewResponseController(&recorder{w})
	return []error{&wrapped{errCode}, &joined{[]error{errCode}}, code(1)}
}
