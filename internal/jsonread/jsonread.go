// Package jsonread walks JSON for decoders written by hand, such as
// recovery's journal decoder, without reflection. What a decoder built on
// it accepts, encoding/json accepts into the same Go value.
package jsonread

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"
	"unicode/utf8"
)

// Reader walks one JSON document; its first error sticks and ends the walk.
type Reader struct {
	b        []byte
	i, depth int // depth counts open objects and arrays
	err      error
}

// New returns a reader at the start of data.
func New(data []byte) Reader { return Reader{b: data} }

// End refuses anything but whitespace after the value; it returns the first error.
func (r *Reader) End() error {
	if r.peek(); r.i < len(r.b) {
		r.Fail("trailing data")
	}
	return r.err
}

// Fail stops the walk with an error naming what was wanted and where.
func (r *Reader) Fail(what string) {
	r.err = cmp.Or(r.err, fmt.Errorf("JSON: %s at offset %d", what, r.i))
	r.i = len(r.b)
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (r *Reader) peek() byte {
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
func (r *Reader) literal(lit string) bool {
	if r.peek() != lit[0] || !bytes.HasPrefix(r.b[r.i:], []byte(lit)) {
		return false
	}
	r.i += len(lit)
	return true
}

// Null consumes a null if it is next.
func (r *Reader) Null() bool { return r.literal("null") }

// each calls member per member of the object or array open and end bracket.
func (r *Reader) each(open, end byte, member func()) {
	if r.peek() != open || r.depth == 10000 {
		r.Fail("want " + string(open) + " at depth at most 10000")
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
			r.Fail("want , or " + string(end))
		}
		member()
	}
}

// Object calls field per member of an object, at its value; null is none.
func (r *Reader) Object(field func(key []byte)) {
	if !r.Null() {
		r.each('{', '}', func() {
			if key := r.quoted(); r.peek() == ':' {
				r.i++
				field(key)
			} else {
				r.Fail("want :")
			}
		})
	}
}

// Fields decodes an object into ptrs, the fields named names, as
// encoding/json does: a key takes the field it names exactly, else one it
// names case-folded, else it is skipped. Value decodes the pointers it
// takes; other decodes the rest, one value each, reporting whether it took
// the pointer's type. A pointer neither takes fails the decode.
func (r *Reader) Fields(names []string, other func(p any) bool, ptrs ...any) {
	r.Object(func(key []byte) {
		switch i := match(names, key); {
		case i < 0:
			r.skip()
		case r.Value(ptrs[i]):
		case other != nil && other(ptrs[i]):
		default:
			r.Fail(fmt.Sprintf("no decoder for %T", ptrs[i]))
		}
	})
}

// match returns the index of the name key is, exactly or else case-folded;
// -1 if none.
func match(names []string, key []byte) int {
	for i, n := range names {
		if n == string(key) {
			return i
		}
	}
	for i, n := range names {
		if strings.EqualFold(n, string(key)) {
			return i
		}
	}
	return -1
}

// Value decodes into p if it points to a string, an integer, a bool, a
// duration, a time or a list of strings, reporting whether it did.
func (r *Reader) Value(p any) bool {
	switch p := p.(type) {
	case *string:
		r.str(p)
	case *int:
		integer(r, p)
	case *int64:
		integer(r, p)
	case *time.Duration:
		integer(r, p)
	case *uint64:
		integer(r, p)
	case *bool:
		switch string(r.token()) {
		case "true":
			*p = true
		case "false":
			*p = false
		case "null":
		default:
			r.Fail("want a bool")
		}
	case *time.Time:
		r.Raw(p.UnmarshalJSON) // what encoding/json hands it: the value's bytes
	case *[]string:
		List(r, p, r.str)
	default:
		return false
	}
	return true
}

// List decodes an array as encoding/json does: into the elements the slice
// has or had, then cut; [] is a new empty slice and null a nil one.
func List[T any](r *Reader, p *[]T, elem func(*T)) {
	if r.Null() {
		*p = nil
		return
	}
	s := (*p)[:0]
	r.each('[', ']', func() {
		s = slices.Grow(s, 1)[:len(s)+1] // reflect.Value.Grow's growth, and any stale element
		elem(&s[len(s)-1])
	})
	if len(s) == 0 {
		s = []T{}
	}
	*p = s
}

// Ptr decodes an object into **p, reusing *p as encoding/json does; null is nil.
func Ptr[T any](r *Reader, p **T, decode func(*T)) {
	if r.Null() {
		*p = nil
		return
	}
	*p = cmp.Or(*p, new(T))
	decode(*p)
}

// quoted reads a string: the input's own bytes if there is nothing to
// unquote, else what encoding/json makes of it (U+FFFD for invalid UTF-8).
func (r *Reader) quoted() []byte {
	if r.peek() != '"' {
		r.Fail("want a string")
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
				r.Fail(err.Error())
			}
			return []byte(out)
		case c == '\\':
			i++
			fallthrough
		case c < ' ' || c >= utf8.RuneSelf:
			plain = false
		}
	}
	r.Fail("unterminated string")
	return nil
}

// str decodes a string into *p; null leaves it as is.
func (r *Reader) str(p *string) {
	if !r.Null() {
		*p = string(r.quoted())
	}
}

// token consumes a number, true, false or null, up to the next delimiter.
func (r *Reader) token() []byte {
	r.peek()
	start := r.i
	for r.i < len(r.b) && strings.IndexByte(",:{}[]\" \t\n\r", r.b[r.i]) < 0 {
		r.i++
	}
	return r.b[start:r.i]
}

// integer decodes a JSON integer, -?(0|[1-9][0-9]*), that T holds; null
// leaves *p as is.
func integer[T ~int | ~int64 | ~uint64](r *Reader, p *T) {
	if r.Null() {
		return
	}
	tok := r.token()
	digits := bytes.TrimPrefix(tok, []byte("-"))
	ok := len(digits) > 0 && (digits[0] != '0' || len(digits) == 1)
	var mag uint64
	for _, c := range digits {
		d := uint64(c - '0')
		ok = ok && c >= '0' && c <= '9' && mag <= (math.MaxUint64-d)/10
		mag = mag*10 + d
	}
	v := T(mag)
	inRange := v >= 0 && uint64(v) == mag
	if len(digits) < len(tok) {
		v = -v
		inRange = ^T(0) < 0 && v <= 0 && uint64(-v) == mag
	}
	if !ok || !inRange {
		r.Fail("want an integer in range")
	}
	*p = v
}

// skip checks and consumes one value of any kind, as json.Valid checks it.
func (r *Reader) skip() { r.walk() }

// Elems checks and consumes the next value as skip does, and returns its
// bytes, capped so that an append copies them, and its length if it is an
// array, else -1.
func (r *Reader) Elems() (raw []byte, n int) {
	r.peek()
	start := r.i
	if n = r.walk(); r.err != nil {
		return nil, 0
	}
	return r.b[start:r.i:r.i], n
}

// walk checks and consumes one value in a single pass, one bit per open
// object or array standing in for recursion. It returns the value's length
// if it is an array, else -1.
func (r *Reader) walk() int {
	b, i := r.b, r.i
	var small [2]uint64
	objs := small[:0] // bit d is set if the container d+1 levels in is an object
	n, open, obj := -1, 0, false
	fail := func(at int, what string) int {
		r.i = at
		r.Fail(what)
		return n
	}
	// Each turn reads a member's start (after an opening bracket or a
	// comma), a value, or what follows one: a comma or a closing bracket.
	for start, value := false, true; ; {
		if !start && !value && open == 0 {
			r.i = i
			return n
		}
		i = space(b, i)
		switch {
		case start:
			start, value = false, true
			if open == 1 && n >= 0 {
				n++
			}
			if !obj {
				continue
			}
			if i == len(b) || b[i] != '"' {
				return fail(i, "want a string")
			}
			end, bad := stringEnd(b, i)
			if bad != "" {
				return fail(end, bad)
			}
			if i = space(b, end); i == len(b) || b[i] != ':' {
				return fail(i, "want :")
			}
			i++
		case value:
			value = false
			if i == len(b) {
				return fail(i, "want a value")
			}
			switch c := b[i]; c {
			case '{', '[':
				if r.depth+open == 10000 {
					return fail(i, "want "+string(c)+" at depth at most 10000")
				}
				w, bit := uint(open)/64, uint64(1)<<(uint(open)%64)
				if w == uint(len(objs)) {
					objs = append(objs, 0)
				}
				if obj = c == '{'; obj {
					objs[w] |= bit
				} else {
					objs[w] &^= bit
				}
				if open++; open == 1 && c == '[' {
					n = 0
				}
				// ] is [+2 and } is {+2: an empty container is a value read.
				if i = space(b, i+1); i == len(b) || b[i] != c+2 {
					start = true
				}
			case '"':
				end, bad := stringEnd(b, i)
				if bad != "" {
					return fail(end, bad)
				}
				i = end
			case 't', 'f', 'n':
				lit := "null"
				if c == 't' {
					lit = "true"
				} else if c == 'f' {
					lit = "false"
				}
				if string(b[i:min(i+len(lit), len(b))]) != lit {
					return fail(i, "want "+lit)
				}
				i += len(lit)
			default:
				end := numberEnd(b, i)
				if end < 0 {
					return fail(i, "want a value")
				}
				i = end
			}
		case i < len(b) && b[i] == ',':
			i, start = i+1, true
		case i < len(b) && (b[i] == '}' && obj || b[i] == ']' && !obj):
			i, open = i+1, open-1
			if open > 0 {
				obj = objs[uint(open-1)/64]&(1<<(uint(open-1)%64)) != 0
			}
		case obj:
			return fail(i, "want , or }")
		default:
			return fail(i, "want , or ]")
		}
	}
}

// space returns where the first byte at or after i that is not JSON
// whitespace is.
func space(b []byte, i int) int {
	for i < len(b) && b[i] <= ' ' && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// numberEnd returns where the JSON number at b[i],
// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?, ends; -1 if there is none.
func numberEnd(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if i = digits(b, i); i < 0 {
		return -1
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); i < 0 {
			return -1
		}
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		return digits(b, i)
	}
	return i
}

// digits returns where the run of digits at b[i] ends; -1 if there is none.
func digits(b []byte, i int) int {
	start := i
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	if i == start {
		return -1
	}
	return i
}

// stringEnd returns where the string opening at b[i] ends, checked as
// json.Valid checks one: no raw control byte, and only the escapes JSON
// has; invalid UTF-8 stands. If it is malformed, bad says why and end is
// where.
func stringEnd(b []byte, i int) (end int, bad string) {
	for i++; i < len(b); i++ {
		c := b[i]
		if c >= ' ' && c != '"' && c != '\\' {
			continue
		}
		switch {
		case c == '"':
			return i + 1, ""
		case c < ' ':
			return i, "control byte in a string"
		}
		if i++; i < len(b) && strings.IndexByte(`"\\/bfnrt`, b[i]) >= 0 {
			continue
		}
		if i+4 < len(b) && b[i] == 'u' && hex(b[i+1:i+5]) {
			i += 4
			continue
		}
		return i, "bad escape in a string"
	}
	return len(b), "unterminated string"
}

// hex reports whether b is all hexadecimal digits.
func hex(b []byte) bool {
	for _, c := range b {
		if !('0' <= c && c <= '9' || 'a' <= c|0x20 && c|0x20 <= 'f') {
			return false
		}
	}
	return true
}

// Raw checks the next value and hands its bytes, undecoded, to use.
func (r *Reader) Raw(use func([]byte) error) {
	r.peek()
	start := r.i
	if r.skip(); r.err == nil {
		if err := use(r.b[start:r.i]); err != nil {
			r.Fail(err.Error())
		}
	}
}
