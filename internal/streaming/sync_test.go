package streaming_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/streaming"
)

// TestSyncAcknowledgesPostApplyEffects pins Sync's contract: when it
// returns, every enqueued batch's post-apply effects are visible too — the
// observer has run for the last batch and the auto-AMI refresh that batch
// triggered is published. Before the fix the engine acknowledged a batch
// before running either, so a Sync caller could see a stale observer count
// or no AMI snapshot at all. CI runs it at GOMAXPROCS 1 and 2 under -race
// with a high -count.
func TestSyncAcknowledgesPostApplyEffects(t *testing.T) {
	// AMIRefreshEvery 1: every batch's apply must end in a refresh.
	eng := streaming.New(streaming.Config{Registry: obs.NewRegistry(), AMIRefreshEvery: 1})
	defer eng.Close()
	var observed atomic.Int64
	eng.SetObserver(func(records int64) { observed.Store(records) })

	vecs := []string{"DC", "FFT", "Hybrid", "AM"}
	var total int64
	for i := 0; i < 200; i++ {
		batch := make([]storage.Record, 1+i%3)
		for j := range batch {
			batch[j] = storage.Record{
				UserID: fmt.Sprintf("u%d", (i+j)%17),
				Vector: vecs[(i+j)%len(vecs)],
				Hash:   fmt.Sprintf("h%d", (i*7+j)%5),
			}
		}
		eng.Enqueue(batch)
		total += int64(len(batch))
		if err := eng.Sync(); err != nil {
			t.Fatal(err)
		}
		if got := observed.Load(); got != total {
			t.Fatalf("batch %d: observer saw %d records after Sync, want %d", i, got, total)
		}
		snap := eng.AMI()
		if snap == nil || snap.Records != total {
			var got int64 = -1
			if snap != nil {
				got = snap.Records
			}
			t.Fatalf("batch %d: AMI snapshot covers %d records after Sync, want %d", i, got, total)
		}
	}
}
