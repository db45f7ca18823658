package api

// Pagination: every list endpoint (and every journal/trace cursor) reads
// the same ?cursor=&limit= pair and reports next_cursor in its envelope.
// Resource listings order by the numeric ID suffix ("d2" before "d10"),
// and the cursor is an ID floor — "items numbered after N" — so pages
// are stable under concurrent creation and deletion: an item deleted
// mid-iteration never shifts the remaining items across a page boundary.
// Journal and trace cursors keep their sequence-number semantics; limit
// caps how many events ride along per response.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync"
)

const (
	// defaultPageLimit is how many items a list response carries when the
	// client does not say; maxPageLimit is the most it may ask for. Every
	// list endpoint enforces both, so no request reads an unbounded slice
	// of a registry.
	defaultPageLimit = 100
	maxPageLimit     = 1000
)

// page is one validated ?cursor=&limit= pair.
type page struct {
	cursor int
	limit  int
}

// parseCursor reads the optional cursor parameter (default 0). The SSE
// route uses it alone — a stream has no page size — and parsePage builds
// on it, so the polling and streaming routes reject the same values.
func parseCursor(q url.Values) (int, error) {
	c := q.Get("cursor")
	if c == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(c)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("cursor must be a non-negative integer")
	}
	return n, nil
}

// parsePage validates the request's pagination parameters. A missing
// cursor starts from the beginning and a missing limit selects the
// default; on a malformed or out-of-range value it answers 400 and
// reports false.
func parsePage(w http.ResponseWriter, r *http.Request) (page, bool) {
	pg := page{limit: defaultPageLimit}
	q := r.URL.Query()
	var err error
	if pg.cursor, err = parseCursor(q); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return pg, false
	}
	if l := q.Get("limit"); l != "" {
		n, err := strconv.Atoi(l)
		if err != nil || n < 1 || n > maxPageLimit {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("limit must be an integer in [1, %d]", maxPageLimit))
			return pg, false
		}
		pg.limit = n
	}
	return pg, true
}

// window clamps the page onto a sequence of n items addressed by offset
// (a journal, a trace, an immutable list): items [start, end) ride along
// and end is the next cursor. A cursor past the end is a clean empty
// window, and limit 0 means "through the end".
func (pg page) window(n int) (start, end int) {
	start = min(pg.cursor, n)
	end = n
	if pg.limit > 0 {
		end = min(start+pg.limit, n)
	}
	return start, end
}

// listBufs holds the buffers list envelopes and trace pages are built in.
var listBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeList answers 200 with the paginated list envelope, assembled in a
// pooled buffer and written once. Its three fields go out in sorted key
// order — the order encoding/json gave the map this envelope used to be,
// and the wire's pinned order — so "campaigns" and "clusters" precede
// "count" and every other key follows.
func writeList[I any](w http.ResponseWriter, key string, items []I, next int) {
	buf := listBufs.Get().(*bytes.Buffer)
	buf.Reset()
	fields := [3]string{"count", key, "next_cursor"}
	slices.Sort(fields[:])
	for i, name := range fields {
		buf.WriteByte("{,,"[i])
		buf.WriteByte('"')
		buf.WriteString(name)
		buf.WriteString(`":`)
		switch name {
		case "count":
			buf.Write(strconv.AppendInt(buf.AvailableBuffer(), int64(len(items)), 10))
		case "next_cursor":
			buf.Write(strconv.AppendInt(buf.AvailableBuffer(), int64(next), 10))
		default:
			if err := json.NewEncoder(buf).Encode(items); err != nil {
				writeError(w, http.StatusInternalServerError, "encoding "+key+": "+err.Error())
				return
			}
			buf.Truncate(buf.Len() - 1) // Encode's newline
		}
	}
	buf.WriteString("}\n")
	writeBuffered(w, buf)
}

// writeBuffered answers 200 with a body assembled in a listBufs buffer,
// written once, and pools the buffer again.
func writeBuffered(w http.ResponseWriter, buf *bytes.Buffer) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf.Bytes())
	// A ?limit=1000 page is not what the next request should find pooled.
	if buf.Cap() <= 64<<10 {
		listBufs.Put(buf)
	}
}

// servePage answers one page of a registry listing, rendering each item
// through info after the registry's lock is released.
func servePage[T, I any](w http.ResponseWriter, r *http.Request, key string, g *registry[T], info func(T) I) {
	pg, ok := parsePage(w, r)
	if !ok {
		return
	}
	items, next := g.page(pg)
	out := make([]I, len(items))
	for i, item := range items {
		out[i] = info(item)
	}
	writeList(w, key, out, next)
}
