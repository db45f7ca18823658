package monitor

import (
	"testing"

	"xcbc/internal/cluster"
	"xcbc/internal/sim"
)

// BenchmarkMonitorFirstPoll is what a cluster pays the first time anything
// asks it for metrics: a fresh aggregator over a 5-node LittleFe at the
// deployment's retention (1024 rows per host) takes one poll. Every
// fleet member pays exactly this in a scenario's metrics phase, so B/op
// here is the monitoring share of retained memory per polled cluster; an
// eagerly allocated ring shows as ~1 MB/op.
func BenchmarkMonitorFirstPoll(b *testing.B) {
	c := cluster.NewLittleFe()
	c.PowerOnAll()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewAggregator(c, 1024, nil).Poll(0)
	}
}

// BenchmarkMonitorPoll measures one warm gmetad poll round over the
// largest Table 3 cluster (KU, 220 nodes): every host's slot exists and
// its ring is full, so the poll allocates nothing.
func BenchmarkMonitorPoll(b *testing.B) {
	c := cluster.NewKansas()
	c.PowerOnAll()
	agg := NewAggregator(c, 64, func(int) float64 { return 0.5 })
	for i := 0; i < 64; i++ {
		agg.Poll(sim.Time(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg.Poll(sim.Time(64 + i))
	}
}
