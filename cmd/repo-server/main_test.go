package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"xcbc/pkg/xcbc/api"
)

// The debug listener and the API are disjoint: pprof answers only on the
// debug mux, and the debug mux serves nothing of the API.
func TestDebugMuxIsSeparateFromAPI(t *testing.T) {
	get := func(h http.Handler, path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}
	dbg := debugMux()
	if rec := get(dbg, "/debug/pprof/"); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Fatalf("pprof index = %d %.80s", rec.Code, rec.Body.String())
	}
	if rec := get(dbg, "/debug/pprof/heap?debug=1"); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "heap profile") {
		t.Fatalf("heap profile = %d %.80s", rec.Code, rec.Body.String())
	}
	if rec := get(dbg, "/api/v1/healthz"); rec.Code != http.StatusNotFound {
		t.Fatalf("debug mux answered the API: %d", rec.Code)
	}
	srv := api.New(api.Config{})
	defer srv.Close()
	if rec := get(srv.Handler(), "/debug/pprof/"); rec.Code != http.StatusNotFound {
		t.Fatalf("API handler answered pprof: %d", rec.Code)
	}
}
