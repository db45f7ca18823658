package sched

import (
	"fmt"
	"testing"
	"time"

	"xcbc/internal/cluster"
	"xcbc/internal/sim"
)

// BenchmarkSubmitQueued measures one scheduling pass over a long queue: a
// 2-core submit and its cancel, under each policy, against a LittleFe whose
// every core a running job holds, so nothing queued can start. allocs/op
// and B/op are what the pass and the cancel cost beyond the job itself.
func BenchmarkSubmitQueued(b *testing.B) {
	for _, queued := range []int{1024, 8192} {
		for _, p := range []Policy{TorqueMaui{}, PlainFIFO{}, Slurm{}, SGE{}} {
			var m *Manager // built once, on the first call: filling it runs a pass per job
			probe := func(b *testing.B) {
				id, err := m.Submit(job("probe", "bob", 2, time.Hour, time.Minute))
				if err != nil {
					b.Fatal(err)
				}
				if err := m.Cancel(id); err != nil {
					b.Fatal(err)
				}
			}
			b.Run(fmt.Sprintf("queued=%d/%s", queued, p.Name()), func(b *testing.B) {
				if m == nil {
					c := cluster.NewLittleFe()
					c.PowerOnAll()
					m = NewManager(sim.NewEngine(), c, p)
					users := []string{"alice", "bob", "carol"}
					if _, err := m.Submit(job("blocker", "alice", 10, 24*time.Hour, 24*time.Hour)); err != nil {
						b.Fatal(err)
					}
					for i := range queued {
						if _, err := m.Submit(job("queued", users[i%len(users)], 2, time.Hour, time.Minute)); err != nil {
							b.Fatal(err)
						}
					}
					probe(b) // the queue's one growth past queued
				}
				b.ResetTimer()
				for range b.N {
					probe(b)
				}
			})
		}
	}
}
