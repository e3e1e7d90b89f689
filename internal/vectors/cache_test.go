package vectors

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCacheSingleflight: N concurrent misses on one key run exactly one
// render; the rest block on the in-flight call and share its result.
func TestCacheSingleflight(t *testing.T) {
	c := NewCache()
	gate := make(chan struct{})
	var renders atomic.Int64

	const workers = 8
	var wg sync.WaitGroup
	results := make([]Fingerprint, workers)
	errs := make([]error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = c.Do("stack", DC, 0, func() (Fingerprint, error) {
				renders.Add(1)
				<-gate // hold the render open until every waiter has arrived
				return Fingerprint{Vector: DC, Hash: "h", Sum: 1}, nil
			})
		}(g)
	}

	// Wait until the other seven goroutines have joined the in-flight call,
	// then release the render.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Waits < workers-1 {
		if time.Now().After(deadline) {
			t.Fatalf("timed out: %d waiters joined, want %d", c.Stats().Waits, workers-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	for g := 0; g < workers; g++ {
		if errs[g] != nil {
			t.Fatalf("worker %d: %v", g, errs[g])
		}
		if results[g].Hash != "h" {
			t.Fatalf("worker %d got %q", g, results[g].Hash)
		}
	}
	if n := renders.Load(); n != 1 {
		t.Errorf("render ran %d times, want 1", n)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Waits != workers-1 || st.Hits != 0 {
		t.Errorf("stats = %+v, want 1 miss, %d waits, 0 hits", st, workers-1)
	}
	if _, err := c.Do("stack", DC, 0, func() (Fingerprint, error) {
		t.Error("render ran on a warm key")
		return Fingerprint{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Errorf("hits = %d after warm lookup, want 1", st.Hits)
	}
	if r := c.Stats().HitRatio(); r <= 0 || r > 1 {
		t.Errorf("hit ratio %v out of (0, 1]", r)
	}
}

// TestCacheErrorNotCached: a failed render is reported to every waiter but
// leaves no entry, so the next lookup retries.
func TestCacheErrorNotCached(t *testing.T) {
	c := NewCache()
	boom := errors.New("render failed")
	if _, err := c.Do("stack", FFT, 0, func() (Fingerprint, error) {
		return Fingerprint{}, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if c.Len() != 0 {
		t.Fatalf("error was cached: len %d", c.Len())
	}
	fp, err := c.Do("stack", FFT, 0, func() (Fingerprint, error) {
		return Fingerprint{Hash: "ok"}, nil
	})
	if err != nil || fp.Hash != "ok" {
		t.Fatalf("retry after error = %v, %v", fp, err)
	}
}

// TestCacheMaxEntries: the entry bound holds and evictions are counted.
func TestCacheMaxEntries(t *testing.T) {
	c := NewCache()
	c.SetMaxEntries(3)
	for i := 0; i < 6; i++ {
		if _, err := c.Do("stack", DC, i, func() (Fingerprint, error) {
			return Fingerprint{Hash: fmt.Sprintf("h%d", i)}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() > 3 {
		t.Errorf("len %d exceeds bound 3", c.Len())
	}
	if st := c.Stats(); st.Evictions != 3 {
		t.Errorf("evictions = %d, want 3", st.Evictions)
	}
	// Shrinking evicts immediately.
	c.SetMaxEntries(1)
	if c.Len() > 1 {
		t.Errorf("len %d after shrinking bound to 1", c.Len())
	}
	// Restoring unbounded keeps entries.
	c.SetMaxEntries(0)
	if _, err := c.Do("stack", DC, 100, func() (Fingerprint, error) {
		return Fingerprint{Hash: "x"}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Errorf("len %d after unbounding, want 2", c.Len())
	}
}

// TestCacheRunGroupOnePass: concurrent lookups on different offsets of one
// (stack, vector) group share a single render pass. The first miss claims
// every missing offset of the group, the others wait on it, each rendered
// key counts one miss, and every result equals a fresh single-offset
// render.
func TestCacheRunGroupOnePass(t *testing.T) {
	c := NewCache()
	r := defaultRunner()
	group := []int{0, 1, 2, 3, 5, 8, 13, 20}

	var wg sync.WaitGroup
	got := make([]Fingerprint, len(group))
	errs := make([]error, len(group))
	for i, off := range group {
		wg.Add(1)
		go func(i, off int) {
			defer wg.Done()
			got[i], errs[i] = c.RunGroup("stack", r, Hybrid, off, group)
		}(i, off)
	}
	wg.Wait()

	for i, off := range group {
		if errs[i] != nil {
			t.Fatalf("offset %d: %v", off, errs[i])
		}
		want, err := r.Run(Hybrid, off)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("offset %d: group render %v != fresh render %v", off, got[i], want)
		}
	}
	st := c.Stats()
	if st.Passes != 1 {
		t.Errorf("passes = %d, want 1 for one group", st.Passes)
	}
	if st.Misses != int64(len(group)) || st.Entries != len(group) {
		t.Errorf("misses = %d, entries = %d, want %d each", st.Misses, st.Entries, len(group))
	}
	if st.Hits+st.Waits != int64(len(group)-1) {
		t.Errorf("hits+waits = %d, want %d", st.Hits+st.Waits, len(group)-1)
	}

	// A later lookup of a new offset renders only that offset: the group's
	// memoized keys are not rendered again.
	if _, err := c.RunGroup("stack", r, Hybrid, 4, append(group, 4)); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Passes != 2 || st.Misses != int64(len(group))+1 {
		t.Errorf("after new offset: passes = %d, misses = %d", st.Passes, st.Misses)
	}
}

// TestCacheRunGroupErrorReachesEveryKey: a failed pass fails every key it
// claimed and caches none of them.
func TestCacheRunGroupErrorReachesEveryKey(t *testing.T) {
	c := NewCache()
	r := defaultRunner()
	if _, err := c.RunGroup("stack", r, ID(42), 0, []int{0, 3}); err == nil {
		t.Fatal("unknown vector rendered")
	}
	if c.Len() != 0 {
		t.Fatalf("failed pass cached %d entries", c.Len())
	}
	if st := c.Stats(); st.Misses != 2 || st.Passes != 1 {
		t.Fatalf("stats after failed pass = %+v", st)
	}
}
