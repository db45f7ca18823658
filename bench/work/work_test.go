package work

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
	"time"
)

func durations(vals ...int) []time.Duration {
	out := make([]time.Duration, len(vals))
	for i, v := range vals {
		out[i] = time.Duration(v)
	}
	return out
}

func TestPercentileIsExactNearestRank(t *testing.T) {
	hundred := make([]time.Duration, 100)
	for i := range hundred {
		hundred[i] = time.Duration(i + 1)
	}
	for _, tc := range []struct {
		sorted []time.Duration
		q      float64
		want   time.Duration
	}{
		{hundred, 0.50, 50},
		{hundred, 0.90, 90}, // 100*0.9 must not round up to rank 91
		{hundred, 0.99, 99},
		{hundred, 1.00, 100},
		{durations(10, 20, 30), 0.50, 20},
		{durations(10, 20, 30, 40), 0.50, 20},
		{durations(7), 0.99, 7},
		{nil, 0.5, 0},
	} {
		if got := Percentile(tc.sorted, tc.q); got != tc.want {
			t.Errorf("Percentile(%d values, %v) = %d, want %d", len(tc.sorted), tc.q, got, tc.want)
		}
	}
}

func TestTailQuantileNeedsFiveThousandOpsForP99(t *testing.T) {
	if got := TailQuantile(4999); got != 0.90 {
		t.Errorf("TailQuantile(4999) = %v, want 0.90", got)
	}
	if got := TailQuantile(5000); got != 0.99 {
		t.Errorf("TailQuantile(5000) = %v, want 0.99", got)
	}
}

// Ten segments of 10 ops each at 100 ops/s, except that three segments
// run at a quarter of the speed: the mean rate drops by almost half, the
// segment median does not move.
func TestSegmentRatesMedianIgnoresSlowSegments(t *testing.T) {
	var samples []Sample
	now := time.Duration(0)
	for seg := range Segments {
		gap := 10 * time.Millisecond
		if seg == 2 || seg == 5 || seg == 6 {
			gap = 40 * time.Millisecond
		}
		for range 10 {
			now += gap
			samples = append(samples, Sample{End: now, Lat: gap})
		}
	}
	slices.Reverse(samples) // completion order must not depend on slice order
	rates := SegmentRates(samples)
	if len(rates) != Segments {
		t.Fatalf("got %d segment rates, want %d", len(rates), Segments)
	}
	if med := Median(rates); math.Abs(med-100) > 1e-6 {
		t.Errorf("segment-median throughput = %v, want 100", med)
	}
	if mean := float64(len(samples)) / now.Seconds(); mean > 60 {
		t.Errorf("the whole-phase mean %v should have been dragged down by the slow segments", mean)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := Quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("Quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
	q1, q3 = Quartiles([]float64{1, 2, 4, 8})
	if q1 != 1.25 || q3 != 7 {
		t.Errorf("Quartiles(1,2,4,8) = %v, %v, want 1.25, 7", q1, q3)
	}
}

func TestSelfTimeIsParentMinusCoveredChildren(t *testing.T) {
	spans := []Span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a: 10..50 counted once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped to the parent: 90..100
		{Name: "leaf", Start: 12, End: 18, Parent: 1},
	}
	self := SelfTimes(spans)
	want := []time.Duration{50, 14, 30, 30, 6}
	if !slices.Equal(self, want) {
		t.Errorf("SelfTimes = %v, want %v", self, want)
	}
}

func TestRecorderNilRecordsNothingAndFullDrops(t *testing.T) {
	var none *Recorder
	none.End(none.Begin("x", -1, 0))
	if len(none.Spans()) != 0 || none.Dropped() != 0 {
		t.Error("a nil recorder must record nothing")
	}
	rec := NewRecorder(2)
	a := rec.Begin("a", -1, 0)
	b := rec.Begin("b", a, 0)
	c := rec.Begin("c", a, 0)
	rec.End(c)
	rec.End(b)
	rec.End(a)
	if c != -1 || len(rec.Spans()) != 2 || rec.Dropped() != 1 {
		t.Errorf("full recorder: third span %d, %d kept, %d dropped", c, len(rec.Spans()), rec.Dropped())
	}
	if s := rec.Spans()[1]; s.Parent != a || s.End < s.Start {
		t.Errorf("span b = %+v", s)
	}
}

func TestSummarizeSkipsWarmupAndCountsCallsPerOp(t *testing.T) {
	spans := []Span{
		{Name: "op", Start: 0, End: 10, Parent: -1, Op: 0},
		{Name: "get", Start: 1, End: 9, Parent: 0, Op: 0}, // warm-up
		{Name: "op", Start: 10, End: 30, Parent: -1, Op: 1},
		{Name: "get", Start: 11, End: 15, Parent: 2, Op: 1},
		{Name: "get", Start: 16, End: 22, Parent: 2, Op: 1},
	}
	stats := Summarize(spans, 1, 1)
	if len(stats) != 2 || stats[0].Name != "get" || stats[0].CallsPerOp != 2 {
		t.Fatalf("Summarize = %+v", stats)
	}
	if op := stats[1]; op.Name != "op" || op.SelfP50Ms != Ms(10) {
		t.Errorf("op self time = %+v, want 20-4-6 = 10ns", op)
	}
}

func TestReadMixSequenceIsAPureFunctionOfTheSeed(t *testing.T) {
	const ops = 1000
	a, b := ReadMixSequence(1, ops), ReadMixSequence(1, ops)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed gave two different request sequences")
	}
	if slices.Equal(a, ReadMixSequence(2, ops)) {
		t.Fatal("seed 2 gave the same request sequence as seed 1")
	}
	// Every whole block holds each entry exactly weight times.
	block := 0
	for _, e := range readMixEntries {
		block += e.weight
	}
	for start := 0; start+block <= ops; start += block {
		counts := make([]int, len(readMixEntries))
		for _, idx := range a[start : start+block] {
			counts[idx]++
		}
		for i, e := range readMixEntries {
			if counts[i] != e.weight {
				t.Fatalf("block at %d holds entry %d %d times, want %d", start, i, counts[i], e.weight)
			}
		}
	}
}

func TestOtherWorkloadsDeriveTheirSequenceFromTheSeed(t *testing.T) {
	l1, l2 := newLifecycle(1, 256).(*lifecycle), newLifecycle(1, 256).(*lifecycle)
	if !slices.Equal(l1.cores, l2.cores) || slices.Equal(l1.cores, newLifecycle(2, 256).(*lifecycle).cores) {
		t.Error("lifecycle job widths are not a pure function of the seed")
	}
	c1, c2 := newCrashRecover(1, 64).(*crashRecover), newCrashRecover(1, 64).(*crashRecover)
	if !slices.Equal(c1.targets, c2.targets) || slices.Equal(c1.targets, newCrashRecover(2, 64).(*crashRecover).targets) {
		t.Error("crash_recover job targets are not a pure function of the seed")
	}
}

func TestAuditRecoveryRejectsLostCreatesAndResurrectedDeletes(t *testing.T) {
	recovered := []string{"d1", "d2", "d7", "d8"}
	if err := AuditRecovery(recovered, []string{"d7", "d8"}, []string{"d5", "d6"}, 4); err != nil {
		t.Fatalf("a faithful recovery was rejected: %v", err)
	}
	// Planted: the crash lost acked create d8.
	err := AuditRecovery([]string{"d1", "d2", "d7"}, []string{"d7", "d8"}, []string{"d5", "d6"}, 3)
	if err == nil || !strings.Contains(err.Error(), "acked create d8 was lost") {
		t.Errorf("lost create: got %v", err)
	}
	// Planted: recovery brought acked delete d5 back.
	err = AuditRecovery([]string{"d1", "d2", "d5", "d7", "d8"}, []string{"d7", "d8"}, []string{"d5", "d6"}, 5)
	if err == nil || !strings.Contains(err.Error(), "acked delete of d5 was undone") {
		t.Errorf("resurrected delete: got %v", err)
	}
	// The population must not drift either way.
	if err := AuditRecovery(append(recovered, "d9"), []string{"d7", "d8"}, nil, 4); err == nil {
		t.Error("an extra deployment went unnoticed")
	}
}

func TestDeploymentIDsAndJSONHelpers(t *testing.T) {
	listing := []byte(`{"count":2,"deployments":[{"id":"d3","path":"xcbc","next_cursor":8},{"id":"d12","path":"xcbc","next_cursor":8}],"next_cursor":12}`)
	if got := DeploymentIDs(listing); !slices.Equal(got, []string{"d3", "d12"}) {
		t.Errorf("DeploymentIDs = %v", got)
	}
	if got := JSONInt(listing, "count"); got != 2 {
		t.Errorf("JSONInt(count) = %d", got)
	}
	if got := JSONInt(listing, "missing"); got != -1 {
		t.Errorf("JSONInt(missing) = %d", got)
	}
	if got := JSONString(listing, "path"); got != "xcbc" {
		t.Errorf("JSONString(path) = %q", got)
	}
	if got := JSONString(listing, "missing"); got != "" {
		t.Errorf("JSONString(missing) = %q", got)
	}
}

// scriptedDoer answers every request with a fixed status.
type scriptedDoer struct {
	status int
	err    error
	calls  int
}

func (d *scriptedDoer) Do(*Request) (int, []byte, error) {
	d.calls++
	return d.status, []byte(`{"ok":true}`), d.err
}

// failOdd fails every odd operation.
type failOdd struct{}

func (failOdd) Populate(*Conn) error { return nil }
func (failOdd) Op(c *Conn, i int) (time.Duration, error) {
	want := 200
	if i%2 == 1 {
		want = 201
	}
	_, err := c.Call(Request{Class: "x", Method: "GET", Path: "/", Want: want}, `"ok":true`)
	return 0, err
}

func TestRunnerCountsFailuresAndNeverRetries(t *testing.T) {
	doers := []*scriptedDoer{{status: 200}, {status: 200}}
	rec := NewRecorder(64)
	r := &Runner{W: failOdd{}, Conns: []*Conn{NewConn(doers[0], rec, nil), NewConn(doers[1], rec, nil)}}
	samples := r.Run(0, 10)
	if len(samples) != 10 || r.Attempted() != 10 || r.Failed() != 5 {
		t.Errorf("%d samples, %d attempted, %d failed; want 10, 10, 5", len(samples), r.Attempted(), r.Failed())
	}
	if calls := doers[0].calls + doers[1].calls; calls != 10 {
		t.Errorf("%d requests for 10 one-request operations: a failure was retried", calls)
	}
	if got := len(rec.Spans()); got != 20 {
		t.Errorf("%d spans, want one per operation and one per request", got)
	}
	for _, s := range samples {
		if s.Lat <= 0 {
			t.Fatalf("sample without a latency: %+v", s)
		}
	}

	broken := &scriptedDoer{err: errors.New("connection refused")}
	r = &Runner{W: failOdd{}, Conns: []*Conn{NewConn(broken, nil, nil)}}
	r.Run(0, 3)
	if r.Failed() != 3 || len(r.Errors()) != 3 {
		t.Errorf("transport errors: %d failed, %d messages", r.Failed(), len(r.Errors()))
	}
	if _, err := r.Conns[0].Restart(); err == nil {
		t.Error("Restart without a restarter must fail")
	}
}

func TestSpecsFitTheBenchmarkContract(t *testing.T) {
	for _, s := range Specs {
		if s.Clients < 1 || s.Clients > 2 {
			t.Errorf("%s: %d clients; the load must come from at most nproc=2 connections", s.Name, s.Clients)
		}
		if len(s.Why) > 200 || strings.ContainsAny(s.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", s.Name, len(s.Why))
		}
		ops := s.MeasuredOps(10)
		if ops < 100 {
			t.Errorf("%s: %d measured ops; the tail percentile needs at least 100", s.Name, ops)
		}
		if s.MeasuredOps(10) != s.MeasuredOps(10) || SpecByName(s.Name) != s {
			t.Errorf("%s: spec lookup or op count is not stable", s.Name)
		}
	}
}
