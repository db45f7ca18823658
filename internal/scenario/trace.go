package scenario

import (
	"encoding/json"
	"slices"
	"strconv"
	"sync"
	"time"
)

// Event is one entry of a scenario trace. Field order is the wire order;
// for a given scenario and seed the full trace is byte-identical across
// runs (the golden-trace regression tests enforce this).
type Event struct {
	Seq    int    `json:"seq"`
	Phase  int    `json:"phase"` // index into Scenario.Phases, -1 for scenario-level entries
	Kind   string `json:"kind"`
	Member string `json:"member,omitempty"`
	Node   string `json:"node,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// Stats aggregates a finished run.
type Stats struct {
	Members          int           `json:"members"`
	Ready            int           `json:"ready"`
	Failed           int           `json:"failed"`
	Cancelled        int           `json:"cancelled"`
	QuarantinedNodes int           `json:"quarantined_nodes"`
	JobsSubmitted    int           `json:"jobs_submitted"`
	JobsCancelled    int           `json:"jobs_cancelled"`
	UpdatesApplied   int           `json:"updates_applied"`
	SimulatedEnd     time.Duration `json:"simulated_end"` // max member virtual now
}

// Result is a finished scenario run.
type Result struct {
	Scenario   string   `json:"scenario"`
	Seed       int64    `json:"seed"`
	Passed     bool     `json:"passed"`
	Violations []string `json:"violations,omitempty"`
	Stats      Stats    `json:"stats"`
	Events     []Event  `json:"events"`
}

// AppendJSON appends the event's JSON encoding to dst: byte for byte what
// json.Marshal(ev) returns, without reflecting over the five fields for
// every event of a trace. The bytes are hashed into journaled progress
// records, so they may never drift from encoding/json's.
func (ev Event) AppendJSON(dst []byte) []byte {
	dst = strconv.AppendInt(append(dst, `{"seq":`...), int64(ev.Seq), 10)
	dst = strconv.AppendInt(append(dst, `,"phase":`...), int64(ev.Phase), 10)
	dst = appendJSONString(append(dst, `,"kind":`...), ev.Kind)
	if ev.Member != "" {
		dst = appendJSONString(append(dst, `,"member":`...), ev.Member)
	}
	if ev.Node != "" {
		dst = appendJSONString(append(dst, `,"node":`...), ev.Node)
	}
	if ev.Detail != "" {
		dst = appendJSONString(append(dst, `,"detail":`...), ev.Detail)
	}
	return append(dst, '}')
}

// appendJSONString appends s as a JSON string. Printable ASCII that
// encoding/json leaves alone — nearly every trace string — is its own
// encoding between quotes; a string holding anything else (quotes,
// backslashes, <>&, control bytes, non-ASCII, invalid UTF-8) is handed to
// encoding/json itself, so the two cannot disagree.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // cannot fail for a string
			return append(dst, quoted...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

// JSON is json.Marshal(r), byte for byte, with the events — nearly all of
// a result's bytes — appended by Event.AppendJSON instead of reflected
// over. Settled runs are journaled in this form.
func (r *Result) JSON() ([]byte, error) {
	head := *r
	head.Events = nil
	data, err := json.Marshal(&head) // ends `,"events":null}`
	if err != nil || r.Events == nil {
		return data, err
	}
	data = append(slices.Grow(data[:len(data)-len("null}")], eventJSONSize*len(r.Events)+2), '[')
	for i := range r.Events {
		if i > 0 {
			data = append(data, ',')
		}
		data = r.Events[i].AppendJSON(data)
	}
	return append(data, ']', '}'), nil
}

// eventJSONSize is a little over the 110 bytes a campus-100 trace line
// averages: what buffers that will hold a whole trace are sized by.
const eventJSONSize = 112

// TraceJSONL renders the event trace as JSON lines, one event per line —
// the machine-readable artifact golden tests compare byte-for-byte.
func (r *Result) TraceJSONL() []byte {
	buf := make([]byte, 0, eventJSONSize*len(r.Events))
	for i := range r.Events {
		buf = append(r.Events[i].AppendJSON(buf), '\n')
	}
	return buf
}

// eventBufPool recycles trace event buffers (as *[]Event) across runs. A
// campaign sweeps thousands of short scenarios; without pooling, every run
// grows a fresh Events slice just to discard it after the metamorphic
// checks.
var eventBufPool sync.Pool

// newEventBuf returns an empty event buffer with room for hint events,
// reusing pooled backing storage when it is large enough, so a long trace
// is allocated once at its expected size instead of by doubling.
func newEventBuf(hint int) []Event {
	if p, _ := eventBufPool.Get().(*[]Event); p != nil {
		if cap(*p) >= hint {
			return (*p)[:0]
		}
		eventBufPool.Put(p)
	}
	return make([]Event, 0, max(hint, 256))
}

// Release returns the result's event buffer to the run pool and clears
// Events. Call it only when done with the result AND every slice derived
// from Events; results that outlive the caller (e.g. served by an API
// registry) should simply never be released. Release is idempotent.
func (r *Result) Release() {
	if r.Events == nil {
		return
	}
	evs := r.Events[:0]
	r.Events = nil
	eventBufPool.Put(&evs)
}
