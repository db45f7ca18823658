package campaign

import (
	"context"
	"testing"
)

// BenchmarkCampaignSweep32 measures a full 32-seed campaign: per seed, one
// generated scenario run twice on private fleets (determinism check), the
// metamorphic trace battery, and the WAL recovery round trip, across an
// 8-worker pool. One op = one whole campaign.
func BenchmarkCampaignSweep32(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := RunObserved(context.Background(), Spec{Seeds: 32, Workers: 8}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if res.Completed != res.Seeds || res.Failed != 0 || res.Errors != 0 {
			b.Fatalf("campaign not clean: %+v", res)
		}
	}
}
