package api

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"
)

// FuzzParsePage sends arbitrary cursor and limit query values through
// parseCursor and parsePage on a real request: neither panics, an accepted
// page holds exactly what strconv.Atoi reads (or the default for an absent
// value) within the documented ranges, and a refusal is a 400 carrying the
// standard JSON error body.
func FuzzParsePage(f *testing.F) {
	for _, seed := range [][2]string{
		{"", ""}, {"0", "1"}, {"7", "1000"}, {"-1", ""}, {"", "0"}, {"", "1001"},
		{"abc", "5"}, {"+3", "-2"}, {" 1", "1 "}, {"9223372036854775808", "0x10"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, cursor, limit string) {
		q := url.Values{"cursor": {cursor}, "limit": {limit}}
		atoi := func(s string, def, lo, hi int) (int, bool) {
			if s == "" {
				return def, true
			}
			n, err := strconv.Atoi(s)
			return n, err == nil && n >= lo && n <= hi
		}
		wantCursor, cursorOK := atoi(cursor, 0, 0, math.MaxInt)
		wantLimit, limitOK := atoi(limit, defaultPageLimit, 1, maxPageLimit)

		c, err := parseCursor(q)
		if (err == nil) != cursorOK || (cursorOK && c != wantCursor) {
			t.Fatalf("parseCursor(%q) = %d, %v; want %d, accepted %v", cursor, c, err, wantCursor, cursorOK)
		}

		rec := httptest.NewRecorder()
		pg, ok := parsePage(rec, httptest.NewRequest(http.MethodGet, "/api/v1/deployments?"+q.Encode(), nil))
		if ok != (cursorOK && limitOK) {
			t.Fatalf("parsePage(cursor=%q, limit=%q) accepted %v, want %v", cursor, limit, ok, cursorOK && limitOK)
		}
		if ok {
			if pg.cursor != wantCursor || pg.limit != wantLimit || pg.cursor < 0 || pg.limit < 1 || pg.limit > maxPageLimit {
				t.Fatalf("parsePage(cursor=%q, limit=%q) = %+v, want cursor %d limit %d", cursor, limit, pg, wantCursor, wantLimit)
			}
			if rec.Body.Len() != 0 {
				t.Fatalf("an accepted page wrote a response: %s", rec.Body)
			}
			return
		}
		var body apiError
		if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &body) != nil || body.Error == "" {
			t.Fatalf("parsePage(cursor=%q, limit=%q) refused with %d %q, want a 400 with a JSON error", cursor, limit, rec.Code, rec.Body)
		}
	})
}
