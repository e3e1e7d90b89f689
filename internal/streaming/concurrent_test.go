package streaming_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/streaming"
	"repro/internal/vectors"
)

// concurrentRecords is a 60-user stream over a small hash pool, so every
// vector's collation graph has multi-user clusters and non-root elements —
// what a read that path-compresses would write to.
func concurrentRecords() []storage.Record {
	var recs []storage.Record
	for i := 0; i < 600; i++ {
		recs = append(recs, storage.Record{
			UserID: fmt.Sprintf("u%02d", (i*7)%60),
			Vector: vectors.All[i%len(vectors.All)].String(),
			Hash:   fmt.Sprintf("h%d", (i*13)%23),
		})
	}
	return recs
}

// TestEngineConcurrentReaders: the read methods share the engine's live
// state under a read lock, so they must not write to it. Four readers
// call every analytics read while a fifth refreshes AMI; each answer must
// equal the single-threaded one, and under -race no read may write the
// union-find forest. CI runs it at GOMAXPROCS 1 and 2 under -race with a
// high -count.
func TestEngineConcurrentReaders(t *testing.T) {
	eng := streaming.New(streaming.Config{Registry: obs.NewRegistry(), AMIRefreshEvery: -1})
	defer eng.Close()
	eng.Apply(concurrentRecords())
	wantDiv, wantCl, wantSt := eng.Diversity(), eng.Clusters(), eng.Stability()
	wantAMI := eng.RefreshAMI()

	var wg sync.WaitGroup
	errs := make(chan string, 5)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if !reflect.DeepEqual(eng.Diversity(), wantDiv) ||
					!reflect.DeepEqual(eng.Clusters(), wantCl) ||
					!reflect.DeepEqual(eng.Stability(), wantSt) ||
					!reflect.DeepEqual(eng.AMI(), wantAMI) {
					errs <- "concurrent read differs from the single-threaded answer"
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if !reflect.DeepEqual(eng.RefreshAMI(), wantAMI) {
				errs <- "concurrent RefreshAMI differs from the single-threaded answer"
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
