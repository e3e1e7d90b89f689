package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collectserver"
	"repro/internal/storage"
	"repro/internal/streaming"
	"repro/internal/verify"
)

// span is one timed call at a layer boundary. Parent is the enclosing
// span on the same goroutine (0 at the top); spans of one HTTP request
// share Req, the request span's ID. Start and End are nanoseconds since
// the tracer was created.
type span struct {
	Name    string `json:"name"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Req     int64  `json:"req"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Records int    `json:"records,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. Parentage follows the
// calling goroutine: net/http serves a request on one goroutine and every
// decorated layer call the handler makes runs synchronously on it, so the
// innermost open span of that goroutine is the caller.
type tracer struct {
	t0   time.Time
	next atomic.Int64

	mu    sync.Mutex
	spans []span
	open  map[uint64][]openSpan // goroutine → stack of open spans
}

type openSpan struct{ id, req int64 }

func newTracer() *tracer {
	return &tracer{t0: time.Now(), open: map[uint64][]openSpan{}}
}

// begin opens a span on the calling goroutine and returns the function
// that closes it, recording n records of work.
func (t *tracer) begin(name string) func(n int) {
	gid := goid()
	id := t.next.Add(1)
	t.mu.Lock()
	stack := t.open[gid]
	var parent, req int64
	if len(stack) > 0 {
		parent, req = stack[len(stack)-1].id, stack[len(stack)-1].req
	}
	if req == 0 && strings.HasPrefix(name, "http ") {
		req = id
	}
	t.open[gid] = append(stack, openSpan{id, req})
	t.mu.Unlock()
	start := time.Since(t.t0).Nanoseconds()
	return func(n int) {
		end := time.Since(t.t0).Nanoseconds()
		t.mu.Lock()
		st := t.open[gid]
		if len(st) <= 1 {
			delete(t.open, gid)
		} else {
			t.open[gid] = st[:len(st)-1]
		}
		t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: req,
			Start: start, End: end, Records: n})
		t.mu.Unlock()
	}
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes the spans as NDJSON, one span per line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// goid returns the calling goroutine's ID, parsed from the stack header
// "goroutine N [...". Only the traced run pays for it.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = b[len("goroutine "):]
	i := 0
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	n, _ := strconv.ParseUint(string(b[:i]), 10, 64)
	return n
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its direct children. Children may nest further
// (a grandchild is already inside its parent child) and may overlap each
// other; the covered part is the union of the children's intervals,
// clipped to the parent.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, curS, curE int64
		have := false
		for _, c := range iv {
			a, b := max(c[0], s.Start), min(c[1], s.End)
			if a >= b {
				continue
			}
			if !have || a > curE {
				if have {
					covered += curE - curS
				}
				curS, curE, have = a, b, true
			} else if b > curE {
				curE = b
			}
		}
		if have {
			covered += curE - curS
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// tracedStore decorates collectserver.RecordStore.
type tracedStore struct {
	t     *tracer
	inner collectserver.RecordStore
}

func (s tracedStore) Append(recs ...storage.Record) error {
	done := s.t.begin("storage.append")
	err := s.inner.Append(recs...)
	done(len(recs))
	return err
}

func (s tracedStore) All() ([]storage.Record, error) {
	done := s.t.begin("storage.all")
	recs, err := s.inner.All()
	done(len(recs))
	return recs, err
}

func (s tracedStore) WriteTo(w io.Writer) (int64, error) {
	done := s.t.begin("storage.write_to")
	n, err := s.inner.WriteTo(w)
	done(0)
	return n, err
}

func (s tracedStore) Count() int { return s.inner.Count() }

// tracedAnalytics decorates collectserver.Analytics.
type tracedAnalytics struct {
	t     *tracer
	inner collectserver.Analytics
}

func (a tracedAnalytics) EnqueueContext(ctx context.Context, recs []storage.Record) {
	done := a.t.begin("streaming.enqueue")
	a.inner.EnqueueContext(ctx, recs)
	done(len(recs))
}

func (a tracedAnalytics) Diversity() streaming.EntropySnapshot {
	done := a.t.begin("streaming.diversity")
	defer done(0)
	return a.inner.Diversity()
}

func (a tracedAnalytics) Clusters() streaming.ClusterSnapshot {
	done := a.t.begin("streaming.clusters")
	defer done(0)
	return a.inner.Clusters()
}

func (a tracedAnalytics) Stability() streaming.StabilitySnapshot {
	done := a.t.begin("streaming.stability")
	defer done(0)
	return a.inner.Stability()
}

func (a tracedAnalytics) AMI() *streaming.AMISnapshot {
	done := a.t.begin("streaming.ami")
	defer done(0)
	return a.inner.AMI()
}

func (a tracedAnalytics) Status() streaming.StatusSnapshot {
	done := a.t.begin("streaming.status")
	defer done(0)
	return a.inner.Status()
}

// tracedVerifier decorates collectserver.Verifier.
type tracedVerifier struct {
	t     *tracer
	inner collectserver.Verifier
}

func (v tracedVerifier) Enroll(recs []storage.Record) {
	done := v.t.begin("verify.enroll")
	v.inner.Enroll(recs)
	done(len(recs))
}

func (v tracedVerifier) Verify(userID string, samples []verify.Sample) (verify.Decision, error) {
	done := v.t.begin("verify.decide")
	defer done(0)
	return v.inner.Verify(userID, samples)
}

func (v tracedVerifier) Stats() verify.StatsSnapshot { return v.inner.Stats() }

// tracedHandler decorates Server.Handler(): one "http <path>" span per
// request, the parent of every layer call the request makes.
func tracedHandler(t *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		done := t.begin("http " + r.URL.Path)
		defer done(0)
		h.ServeHTTP(w, r)
	})
}
