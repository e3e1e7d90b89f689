package vectors

import (
	"slices"
	"sync"
	"sync/atomic"
)

// Cache memoizes fingerprints by (audio-stack key, vector, capture offset).
// Rendering is bit-deterministic given those three inputs (asserted by the
// engine's tests), so memoization is exact: a study over thousands of users
// re-renders only once per distinct platform class and capture state,
// turning an O(users × iterations) rendering bill into O(platform classes ×
// offsets). RunGroup goes one step further: the offsets of one (stack,
// vector) group share a single render pass, so the bill becomes one pass
// per platform class and vector. Safe for concurrent use.
//
// Misses are deduplicated singleflight-style: when N goroutines miss on the
// same key concurrently (the common case in a parallel study sweep, where
// every worker meets the same few dozen platform classes), exactly one
// renders and the rest wait for its result. Without this, raising
// study.Config.Parallelism multiplies redundant renders instead of
// throughput.
type Cache struct {
	mu       sync.Mutex
	m        map[cacheKey]Fingerprint
	inflight map[cacheKey]*inflightCall
	max      int // 0 = unbounded

	hits      atomic.Int64
	misses    atomic.Int64
	waits     atomic.Int64
	passes    atomic.Int64
	evictions atomic.Int64

	// shadow, when set, samples this cache's miss-path renders through the
	// lockstep engine audit. Hung off the cache because the miss path is
	// exactly the set of renders that actually execute the engine.
	shadow atomic.Pointer[ShadowAuditor]
}

type cacheKey struct {
	stack  string
	vector ID
	offset int
}

// inflightCall is one in-progress render other goroutines can wait on.
type inflightCall struct {
	done chan struct{}
	fp   Fingerprint
	err  error
}

// NewCache returns an empty, unbounded cache.
func NewCache() *Cache {
	return &Cache{
		m:        make(map[cacheKey]Fingerprint),
		inflight: make(map[cacheKey]*inflightCall),
	}
}

// SetMaxEntries bounds the cache to n memoized renders (0 restores
// unbounded). When full, an arbitrary entry is evicted per insert —
// acceptable because every entry is equally cheap to recompute and study
// sweeps revisit keys uniformly.
func (c *Cache) SetMaxEntries(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.max = n
	c.evictLocked()
}

func (c *Cache) evictLocked() {
	if c.max <= 0 {
		return
	}
	for len(c.m) > c.max {
		for k := range c.m {
			delete(c.m, k)
			c.evictions.Add(1)
			mCacheEvictions.Inc()
			break
		}
	}
}

// Len reports the number of memoized renders.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// CacheStats is a snapshot of the cache's behavior counters.
type CacheStats struct {
	// Hits counts lookups served from the memo map.
	Hits int64
	// Misses counts the keys rendered on the miss path: a render pass that
	// fills several offsets of one (stack, vector) group counts one miss
	// per key, so in an unbounded cache Misses equals Entries.
	Misses int64
	// Waits counts lookups that joined another goroutine's in-progress
	// render instead of starting their own.
	Waits int64
	// Evictions counts entries dropped by the SetMaxEntries bound.
	Evictions int64
	// Passes counts render passes: misses that ran the renderer, each
	// filling one or more keys.
	Passes int64
	// Entries is the current number of memoized renders.
	Entries int
}

// HitRatio returns the share of cache traffic served without rendering:
// hits and singleflight waits over hits, waits and rendered keys (Misses),
// or 0 before any lookup.
func (s CacheStats) HitRatio() float64 {
	total := s.Hits + s.Waits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Waits) / float64(total)
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	entries := len(c.m)
	c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Waits:     c.waits.Load(),
		Evictions: c.evictions.Load(),
		Passes:    c.passes.Load(),
		Entries:   entries,
	}
}

// SetShadow attaches a shadow auditor that samples this cache's miss-path
// renders through the lockstep engine comparison (nil detaches). Audits run
// synchronously inside the singleflight, so the 1-in-N sampling rate is the
// latency control.
func (c *Cache) SetShadow(a *ShadowAuditor) { c.shadow.Store(a) }

// Shadow returns the attached shadow auditor, if any.
func (c *Cache) Shadow() *ShadowAuditor { return c.shadow.Load() }

// Run returns the fingerprint for (stackKey, id, offset), rendering through
// r on a cache miss. stackKey must uniquely identify r's traits: two runners
// with different traits must never share a key. Run is RunGroup with no
// other planned offsets.
func (c *Cache) Run(stackKey string, r *Runner, id ID, offset int) (Fingerprint, error) {
	return c.RunGroup(stackKey, r, id, offset, nil)
}

// RunGroup is Run for a caller that knows which capture offsets it will ask
// for on (stackKey, id): group lists them in ascending order. On a miss,
// one render pass (Runner.RunOffsets) fills offset together with every
// group offset that is neither memoized nor in flight, so a (stack, vector)
// group costs one render however many offsets it needs. Every key of the
// pass is registered in flight before rendering starts, so concurrent
// lookups on any of them wait for the pass instead of rendering again, and
// each rendered key counts as one miss.
func (c *Cache) RunGroup(stackKey string, r *Runner, id ID, offset int, group []int) (Fingerprint, error) {
	return c.do(stackKey, id, offset, group, func(offsets []int) ([]Fingerprint, error) {
		fps, err := r.RunOffsets(id, offsets)
		if err != nil {
			return nil, err
		}
		if a := c.shadow.Load(); a != nil {
			for _, off := range offsets {
				a.MaybeAudit(stackKey, r, id, off)
			}
		}
		return fps, nil
	})
}

// Do returns the memoized fingerprint for (stackKey, id, offset), invoking
// render on a miss. Concurrent misses on the same key are collapsed: one
// caller renders, the rest block until it finishes and share its result.
// Errors are returned to every waiter but never cached — a later lookup
// retries the render.
func (c *Cache) Do(stackKey string, id ID, offset int, render func() (Fingerprint, error)) (Fingerprint, error) {
	return c.do(stackKey, id, offset, nil, func([]int) ([]Fingerprint, error) {
		fp, err := render()
		return []Fingerprint{fp}, err
	})
}

// do is the memo and singleflight behind Run, RunGroup and Do. On a miss it
// claims offset plus group's missing, not-in-flight offsets (ascending) and
// calls render once; on success render returns one fingerprint per claimed
// offset.
func (c *Cache) do(stackKey string, id ID, offset int, group []int, render func(offsets []int) ([]Fingerprint, error)) (Fingerprint, error) {
	k := cacheKey{stack: stackKey, vector: id, offset: offset}

	c.mu.Lock()
	if fp, ok := c.m[k]; ok {
		c.mu.Unlock()
		c.hits.Add(1)
		mCacheHits.Inc()
		return fp, nil
	}
	if call, ok := c.inflight[k]; ok {
		c.mu.Unlock()
		c.waits.Add(1)
		mCacheWaits.Inc()
		<-call.done
		return call.fp, call.err
	}
	offsets := []int{offset}
	for _, off := range group {
		gk := cacheKey{stack: stackKey, vector: id, offset: off}
		_, memo := c.m[gk]
		_, busy := c.inflight[gk]
		if !memo && !busy {
			offsets = append(offsets, off)
		}
	}
	slices.Sort(offsets)
	offsets = slices.Compact(offsets)
	calls := make([]*inflightCall, len(offsets))
	mine := 0
	for i, off := range offsets {
		calls[i] = &inflightCall{done: make(chan struct{})}
		c.inflight[cacheKey{stack: stackKey, vector: id, offset: off}] = calls[i]
		if off == offset {
			mine = i
		}
	}
	c.mu.Unlock()

	c.misses.Add(int64(len(offsets)))
	mCacheMisses.Add(int64(len(offsets)))
	c.passes.Add(1)
	fps, err := render(offsets)

	c.mu.Lock()
	for i, off := range offsets {
		ck := cacheKey{stack: stackKey, vector: id, offset: off}
		delete(c.inflight, ck)
		calls[i].err = err
		if err == nil {
			calls[i].fp = fps[i]
			c.m[ck] = fps[i]
		}
	}
	c.evictLocked()
	c.mu.Unlock()
	for _, call := range calls {
		close(call.done)
	}
	return calls[mine].fp, err
}
