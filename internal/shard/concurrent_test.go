package shard_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/streaming"
	"repro/internal/vectors"
)

// TestRouterConcurrentReaders: concurrent HTTP handlers read one cached
// merged State with no lock, so its analytics reads must not write to it.
// At N = 1 and 3, four readers call every analytics read while a fifth
// refreshes AMI; each answer must equal the single engine's, and under
// -race no read may write the merged union-find forests. CI runs it at
// GOMAXPROCS 1 and 2 under -race with a high -count.
func TestRouterConcurrentReaders(t *testing.T) {
	var recs []storage.Record
	for i := 0; i < 600; i++ {
		recs = append(recs, storage.Record{
			UserID: fmt.Sprintf("u%02d", (i*7)%60),
			Vector: vectors.All[i%len(vectors.All)].String(),
			Hash:   fmt.Sprintf("h%d", (i*13)%23),
		})
	}
	eng := streaming.New(streaming.Config{Registry: obs.NewRegistry(), AMIRefreshEvery: -1})
	defer eng.Close()
	eng.Apply(recs)
	wantDiv, wantCl, wantSt, wantAMI := eng.Diversity(), eng.Clusters(), eng.Stability(), eng.RefreshAMI()

	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			rt, err := shard.NewRouter(shard.Config{
				Shards: n,
				Engine: streaming.Config{Registry: obs.NewRegistry(), AMIRefreshEvery: -1},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			rt.Bootstrap(recs)

			var wg sync.WaitGroup
			errs := make(chan string, 5)
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 20; i++ {
						if !reflect.DeepEqual(rt.Diversity(), wantDiv) ||
							!reflect.DeepEqual(rt.Clusters(), wantCl) ||
							!reflect.DeepEqual(rt.Stability(), wantSt) ||
							!reflect.DeepEqual(rt.AMI(), wantAMI) {
							errs <- "concurrent read differs from the single engine"
							return
						}
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					if !reflect.DeepEqual(rt.RefreshAMI(), wantAMI) {
						errs <- "concurrent RefreshAMI differs from the single engine"
						return
					}
				}
			}()
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Error(e)
			}
		})
	}
}
