package jsonread

import (
	"encoding/json"
	"strings"
	"testing"
)

// checkSkip holds skip to json.Valid: the reader's End error is nil exactly
// when json.Valid accepts data, and a refusal names where it stopped.
func checkSkip(t *testing.T, data []byte) {
	r := New(data)
	r.skip()
	err := r.End()
	if (err == nil) != json.Valid(data) {
		t.Fatalf("%.80q: End() = %v, json.Valid = %v", data, err, json.Valid(data))
	}
	if err != nil && !strings.Contains(err.Error(), "offset") {
		t.Fatalf("%.80q: refusal %v names no offset", data, err)
	}
}

// TestSkipDepth checks skip at and past encoding/json's nesting limit, on
// its own and inside an object. These inputs stay out of FuzzSkip's seeds:
// minimizing one derived from a 20 KB seed stalls the fuzzer for seconds.
func TestSkipDepth(t *testing.T) {
	deep := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	for _, in := range []string{deep(10000), deep(10001), `{"a":` + deep(9999) + `}`, `{"a":` + deep(10000) + `}`} {
		checkSkip(t, []byte(in))
	}
}

// FuzzSkip holds skip to json.Valid (see checkSkip). The seeds, each under
// 1 KB, sit on either side of each rule: shallow nesting, numbers, escapes,
// and raw control bytes and invalid UTF-8 in strings; TestSkipDepth covers
// nesting at encoding/json's limit.
func FuzzSkip(f *testing.F) {
	for _, in := range []string{
		`[[[]]]`, `[[[]]`, `{"a":{"b":[{}]}}`, `{"a":[{"b":[]}]]}`,
		`-0`, `01`, `1.`, `1e+`, `0`, `-`, `-01`, `1.5e-3`, `1E9`, `2.0e`, `.5`, `+1`, `1x`, `00`, `-0.0e+0`,
		`"\u12G4"`, `"\u12a4"`, `"\uABCD"`, `"\u12"`, `"\x"`, `"\"\\\/\b\f\n\r\t"`, `"\`, `"abc`,
		"\"\x01\"", "\"a\x1fb\"", "\"\x7f\"", "\"\xff\xfe\"", "\"\xed\xa0\x80\"", "{\"\xc3\":1}", "\"\t\"",
		``, ` `, `null`, `nul`, `nulll`, `true`, `truex`, `tru`, `false`, `fals`,
		`[]`, `[ ]`, `[1,]`, `[,1]`, `[1 2]`, `[1,2]`, `{}`, `{ }`, `{"a"}`, `{"a":}`, `{"a":1,}`, `{,}`, `{1:2}`,
		`{"a":1}}`, `[1]]`, `[1}`, `{"a":1]`, ` {"a" : [ true , null ] } `, `[{"op":"metrics"},{"op":"job.submit","job":{"cores":1}}]`,
		"[1,\x00]", "\x00", `{"a":[{"b":[{"c":[]}]}],"d":"e"}` + " x",
	} {
		f.Add([]byte(in))
	}
	f.Fuzz(checkSkip)
}

// TestElems checks that Elems hands back an array's bytes and length, and
// any other value's bytes with -1; that appending to the bytes copies
// them; and that a refusal returns nothing.
func TestElems(t *testing.T) {
	for _, tc := range []struct {
		in, raw string
		n       int
	}{
		{` [] ,`, `[]`, 0},
		{`[{"op":"metrics","job":{"op":"x"}},1,{"Op":"alerts","n":2,"s":"t"},[{"op":"y"}],{"\u006fp":"\u0061","o\u0070":5}] `,
			`[{"op":"metrics","job":{"op":"x"}},1,{"Op":"alerts","n":2,"s":"t"},[{"op":"y"}],{"\u006fp":"\u0061","o\u0070":5}]`, 5},
		{`{"op":"metrics"}`, `{"op":"metrics"}`, -1},
		{`5`, `5`, -1},
		{`"[1]"`, `"[1]"`, -1},
	} {
		data := []byte(tc.in + `"after"`)
		r := New(data)
		raw, n := r.Elems()
		if string(raw) != tc.raw || n != tc.n {
			t.Errorf("Elems(%s) = %s, %d; want %s, %d", tc.in, raw, n, tc.raw, tc.n)
		}
		if len(raw) > 0 {
			before := string(data)
			_ = append(raw, 'x')
			if string(data) != before {
				t.Errorf("appending to Elems(%s) wrote into the input", tc.in)
			}
		}
	}
	r := New([]byte(`[{"op":"metrics"},]`))
	if raw, n := r.Elems(); raw != nil || n != 0 || r.End() == nil {
		t.Errorf("Elems of a bad array = %q, %d, %v", raw, n, r.End())
	}
}
