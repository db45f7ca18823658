package work

import (
	"slices"
	"sync/atomic"
	"time"
)

// Span is one timed interval at a layer boundary. Spans of one operation
// share Op; Parent is the index of the span that caused this one, -1 for a
// root. Times are nanoseconds since the recorder was created.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
}

// Recorder keeps spans in memory, in a slice sized up front so that
// recording never allocates on the measured path. A nil *Recorder records
// nothing, which is how untraced runs skip the work.
type Recorder struct {
	epoch time.Time
	spans []Span
	next  atomic.Int32
}

// NewRecorder returns a recorder with room for capacity spans; spans past
// that are dropped and counted.
func NewRecorder(capacity int) *Recorder {
	return &Recorder{epoch: time.Now(), spans: make([]Span, capacity)}
}

// Begin opens a span and returns its index, or -1 when nothing is recorded.
func (r *Recorder) Begin(name string, parent, op int32) int32 {
	if r == nil {
		return -1
	}
	i := r.next.Add(1) - 1
	if int(i) >= len(r.spans) {
		return -1
	}
	r.spans[i] = Span{Name: name, Start: int64(time.Since(r.epoch)), Parent: parent, Op: op}
	return i
}

// End closes the span Begin returned.
func (r *Recorder) End(i int32) {
	if r == nil || i < 0 {
		return
	}
	r.spans[i].End = int64(time.Since(r.epoch))
}

// Spans returns the recorded spans; call it after the recording
// goroutines have finished.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans[:min(int(r.next.Load()), len(r.spans))]
}

// Dropped reports how many spans did not fit.
func (r *Recorder) Dropped() int {
	if r == nil {
		return 0
	}
	return max(int(r.next.Load())-len(r.spans), 0)
}

// SelfTimes returns, for every span, its duration minus the part of its
// interval that its child spans cover. Overlapping children are counted
// once and a child is clipped to its parent's interval.
func SelfTimes(spans []Span) []time.Duration {
	type iv struct{ lo, hi int64 }
	children := make(map[int32][]iv)
	for _, s := range spans {
		if s.Parent >= 0 && int(s.Parent) < len(spans) {
			p := spans[s.Parent]
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				children[s.Parent] = append(children[s.Parent], iv{lo, hi})
			}
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		covered := int64(0)
		ivs := children[int32(i)]
		slices.SortFunc(ivs, func(a, b iv) int { return int(a.lo - b.lo) })
		reach := s.Start
		for _, c := range ivs {
			if c.hi <= reach {
				continue
			}
			covered += c.hi - max(c.lo, reach)
			reach = c.hi
		}
		out[i] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// ClassStat summarises the spans of one name across a run.
type ClassStat struct {
	Name       string  `json:"name"`
	CallsPerOp float64 `json:"calls_per_op"`
	P50Ms      float64 `json:"p50_ms"`
	SelfP50Ms  float64 `json:"self_p50_ms"`
}

// Summarize groups spans by name and reports, for each, calls per
// operation and the median duration and self time. Spans belonging to
// operations below fromOp (the warm-up) are left out.
func Summarize(spans []Span, fromOp int32, ops int) []ClassStat {
	self := SelfTimes(spans)
	durs := make(map[string][]time.Duration)
	selfs := make(map[string][]time.Duration)
	for i, s := range spans {
		if s.Op < fromOp || s.End == 0 {
			continue
		}
		durs[s.Name] = append(durs[s.Name], time.Duration(s.End-s.Start))
		selfs[s.Name] = append(selfs[s.Name], self[i])
	}
	names := make([]string, 0, len(durs))
	for name := range durs {
		names = append(names, name)
	}
	slices.Sort(names)
	out := make([]ClassStat, 0, len(names))
	for _, name := range names {
		d, s := durs[name], selfs[name]
		slices.Sort(d)
		slices.Sort(s)
		out = append(out, ClassStat{
			Name:       name,
			CallsPerOp: float64(len(d)) / float64(max(ops, 1)),
			P50Ms:      Ms(Percentile(d, 0.5)),
			SelfP50Ms:  Ms(Percentile(s, 0.5)),
		})
	}
	return out
}

// InProcessRun is one workload run straight through api.Server.Handler by
// the layer probe.
type InProcessRun struct {
	Ops            int         `json:"ops"`
	OpP50Ms        float64     `json:"op_p50_ms"`
	Classes        []ClassStat `json:"classes"`
	RespBytesPerOp float64     `json:"resp_bytes_per_op"`
	TraceEvents    int         `json:"trace_events_per_run,omitempty"`
	DroppedSpans   int         `json:"dropped_spans,omitempty"`
}

// ProbeOutput is the JSON document bench/layerprobe prints and the driver
// reads.
type ProbeOutput struct {
	Metrics   map[string]float64       `json:"metrics"`
	InProcess map[string]*InProcessRun `json:"in_process"`
	Spans     []Span                   `json:"spans"`
}
