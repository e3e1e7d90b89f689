// Package streaming maintains the paper's population analytics
// incrementally, one collection record at a time, so a serving process can
// answer "what is the entropy / cluster structure of the population right
// now" without re-running the batch pipeline.
//
// The engine's state is a live State (mergeable.go) plus the indexes it
// needs to apply a record: the user map, per vector the hash intern map
// and each user's distinct-fingerprint set, and each user's current
// surface values. Per audio vector the State holds an online union-find
// collation graph (collate.IntGraph, with O(1) cluster counts) and the
// per-user distinct-fingerprint counts of Table 1; per non-audio surface
// (canvas, fonts, Math-JS, platform, User-Agent) an exact value→user-count
// map for Table 3. Every served row is a State method (snapshot.go), the
// same code a shard router runs on merged States. Pairwise-vector AMI
// (Figure 5) is the one snapshot-refreshed quantity: it is recomputed
// every Config.AMIRefreshEvery applied records rather than per record.
//
// All maintained state is *exact*, not approximate: on any record prefix
// the engine's labels, cluster counts, distinct counts, and entropy rows
// are bit-identical to loading the same records with
// study.FromRecordsOpts(KeepAllObservations) and running the batch
// analyses — both sides reduce their float summations to
// diversity.SummaryFromCounts. The batch path stays the golden reference;
// the property test in equiv_test.go enforces the equivalence.
package streaming

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/study"
	"repro/internal/vectors"
)

// ErrClosed is returned by Sync when the engine has been closed.
var ErrClosed = errors.New("streaming: engine closed")

// Config parameterizes New. The zero value is usable.
type Config struct {
	// Registry receives the engine's metrics; nil uses obs.Default.
	Registry *obs.Registry
	// QueueDepth bounds the update queue in batches (default 256). When
	// the queue is full Enqueue blocks — backpressure on the ingestion
	// path rather than unbounded memory growth; the wait is counted on
	// streaming_queue_full_waits_total.
	QueueDepth int
	// AMIRefreshEvery refreshes the pairwise-AMI snapshot every N applied
	// records (default 4096). Negative disables automatic refresh
	// (RefreshAMI can still be called explicitly).
	AMIRefreshEvery int
	// Spans, when non-nil, receives one "streaming.apply" span per applied
	// batch that carried a trace identity (EnqueueContext): the identity
	// rides the queue across the async boundary, so the exported span
	// joins the submitting request's distributed trace.
	Spans obs.SpanExporter
	// MetricLabels is merged into every metric the engine registers — how
	// N shard engines share one registry without their gauges replacing
	// each other (each shard passes {"shard": i}).
	MetricLabels obs.Labels
}

// applyIndex is one audio vector's apply-side index.
type applyIndex struct {
	intern   map[string]int32 // hash → dense fingerprint ID
	distinct [][]int32        // per-user sorted distinct fingerprint IDs
}

// Engine is the incremental analysis engine. Create with New; feed it
// accepted submissions with Enqueue (or Bootstrap for recovery replay);
// read consistent snapshots with the methods in snapshot.go. All methods
// are safe for concurrent use.
type Engine struct {
	queueDepth int
	amiEvery   int
	spans      obs.SpanExporter
	metLabels  obs.Labels

	// observer is the watch hook: a func(records int64) invoked after
	// each applied batch, off the state lock. See SetObserver.
	observer atomic.Value

	mu    sync.RWMutex // guards st and the apply-side indexes below
	st    *State       // live analysis state; every served row is read from it
	users map[string]int32
	surfs [numSurfaces][]string // surface index → per-user current value
	vecs  []applyIndex          // indexed in vectors.All order

	amiMu   sync.Mutex
	ami     *AMISnapshot
	lastAMI int64 // records at last refresh

	qmu     sync.Mutex
	qcond   *sync.Cond
	enq     int64 // batches enqueued (or bootstrapped)
	applied int64 // batches fully applied
	closed  bool
	lost    bool // a batch was dropped by shutdown

	queue chan batch
	quit  chan struct{}
	done  chan struct{}

	met engineMetrics
}

// batch is one queued update: the records plus the trace identity of the
// request that produced them (zero when the caller was untraced).
type batch struct {
	recs []storage.Record
	tc   obs.TraceContext
}

// Surface order inside Engine.surfs and State.Surfaces. The User-Agent
// follows FromRecords' first-non-empty-wins rule; the others follow its
// last-record-wins rule.
const (
	surfCanvas = iota
	surfFonts
	surfMathJS
	surfPlatform
	surfUA
	numSurfaces
)

var surfaceNames = [numSurfaces]string{"Canvas", "Fonts", "MathJS", "Platform", "User-Agent"}
var surfaceKeys = [numSurfaces]string{study.SurfaceCanvas, study.SurfaceFonts, study.SurfaceMathJS, study.SurfacePlatform, ""}

// New returns a running engine: its consumer goroutine drains the update
// queue until Close.
func New(cfg Config) *Engine {
	e := &Engine{
		queueDepth: cfg.QueueDepth,
		amiEvery:   cfg.AMIRefreshEvery,
		st:         NewState(),
		users:      map[string]int32{},
		vecs:       make([]applyIndex, len(vectors.All)),
		quit:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	if e.queueDepth <= 0 {
		e.queueDepth = 256
	}
	if e.amiEvery == 0 {
		e.amiEvery = 4096
	}
	e.spans = cfg.Spans
	e.metLabels = cfg.MetricLabels
	e.queue = make(chan batch, e.queueDepth)
	e.qcond = sync.NewCond(&e.qmu)
	for i := range e.vecs {
		e.vecs[i].intern = map[string]int32{}
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default
	}
	e.registerMetrics(reg)
	go e.loop()
	return e
}

// Enqueue hands a batch of accepted records to the engine off the caller's
// critical path. It returns immediately while the queue has room and
// blocks (counted) when it is full; after Close the batch is dropped.
func (e *Engine) Enqueue(recs []storage.Record) {
	e.enqueue(batch{recs: recs})
}

// EnqueueContext is Enqueue carrying the caller's trace identity: the
// ingest request's active span rides the queue, and the eventual
// "streaming.apply" span joins its distributed trace (Config.Spans).
func (e *Engine) EnqueueContext(ctx context.Context, recs []storage.Record) {
	b := batch{recs: recs}
	if e.spans != nil {
		b.tc, _ = obs.TraceContextOf(obs.SpanFromContext(ctx))
	}
	e.enqueue(b)
}

func (e *Engine) enqueue(b batch) {
	if len(b.recs) == 0 {
		return
	}
	e.qmu.Lock()
	if e.closed {
		e.qmu.Unlock()
		return
	}
	e.enq++
	e.qmu.Unlock()
	select {
	case e.queue <- b:
		return
	default:
	}
	e.met.queueWaits.Inc()
	select {
	case e.queue <- b:
	case <-e.quit:
		// Shutdown raced the send: the batch is dropped. Account it as
		// applied so Sync waiters observe a consistent ledger, and record
		// the loss so they learn the engine closed under them.
		e.qmu.Lock()
		e.applied++
		e.lost = true
		e.qcond.Broadcast()
		e.qmu.Unlock()
	}
}

// Apply folds a batch synchronously on the caller's goroutine, bypassing
// the queue — the building block of Bootstrap and of benchmarks that
// measure the per-record cost without queue hand-off noise.
func (e *Engine) Apply(recs []storage.Record) {
	e.qmu.Lock()
	e.enq++
	e.qmu.Unlock()
	e.applyBatch(batch{recs: recs})
}

// SetObserver installs fn to run after every applied batch with the total
// applied record count, outside the engine's state lock — the hook the
// watch monitor evaluates its rules from. A nil fn uninstalls. The call
// happens on the applying goroutine (the engine's consumer for Enqueue,
// the caller for Apply/Bootstrap), so a deterministic replay through
// Apply yields a deterministic evaluation sequence. A batch is
// acknowledged to Sync only after fn returns, so fn must not call Sync.
func (e *Engine) SetObserver(fn func(records int64)) {
	e.observer.Store(observerBox{fn})
}

// observerBox wraps the func so atomic.Value accepts nil installs.
type observerBox struct{ fn func(records int64) }

// Bootstrap replays records synchronously — the restart path after
// storage.Recover() — and refreshes the AMI snapshot once at the end.
func (e *Engine) Bootstrap(recs []storage.Record) {
	e.Apply(recs)
	e.RefreshAMI()
}

// Sync blocks until every batch enqueued so far has been applied, so
// readers observe them — including each batch's post-apply effects: the
// observer (SetObserver) has run for it and any auto-AMI refresh it
// triggered is published. It returns ErrClosed if the engine closed before
// applying everything (already-queued batches are still drained on Close,
// but a batch racing shutdown can be dropped).
func (e *Engine) Sync() error {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	target := e.enq
	for e.applied < target {
		e.qcond.Wait()
	}
	if e.lost {
		return ErrClosed
	}
	return nil
}

// Close stops the consumer after draining already-queued batches. It is
// idempotent and safe to call concurrently with Enqueue.
func (e *Engine) Close() {
	e.qmu.Lock()
	if e.closed {
		e.qmu.Unlock()
		<-e.done
		return
	}
	e.closed = true
	e.qmu.Unlock()
	close(e.quit)
	<-e.done
	// The worker has exited; any batch that slipped into the queue after
	// the drain is lost. Settle the ledger so Sync waiters wake.
	e.qmu.Lock()
	if e.applied < e.enq {
		e.applied = e.enq
		e.lost = true
	}
	e.qcond.Broadcast()
	e.qmu.Unlock()
}

func (e *Engine) loop() {
	defer close(e.done)
	for {
		select {
		case batch := <-e.queue:
			e.applyBatch(batch)
		case <-e.quit:
			for {
				select {
				case batch := <-e.queue:
					e.applyBatch(batch)
				default:
					return
				}
			}
		}
	}
}

func (e *Engine) applyBatch(b batch) {
	var sp *obs.Span
	if e.spans != nil && b.tc.Valid() {
		sp = obs.NewRemoteChild("streaming.apply", b.tc)
	}
	start := time.Now()
	e.mu.Lock()
	for i := range b.recs {
		e.applyLocked(&b.recs[i])
	}
	records := e.st.Records
	e.mu.Unlock()

	e.met.applySeconds.Observe(time.Since(start).Seconds())
	e.met.recordsApplied.Add(int64(len(b.recs)))
	e.met.batchesApplied.Inc()
	if sp != nil {
		sp.SetAttr("records", len(b.recs))
		sp.SetAttr("total_records", records)
		sp.End()
		e.spans.ExportSpan(sp)
	}

	if ob, _ := e.observer.Load().(observerBox); ob.fn != nil {
		ob.fn(records)
	}

	if e.amiEvery > 0 && records-e.loadLastAMI() >= int64(e.amiEvery) {
		e.RefreshAMI()
	}

	// Acknowledge last, after every effect of the batch: a Sync waiter
	// woken here sees the observer's evaluation and any auto-refreshed
	// AMI snapshot. Neither may call Sync (it would wait on itself).
	e.qmu.Lock()
	e.applied++
	e.qcond.Broadcast()
	e.qmu.Unlock()
}

func (e *Engine) loadLastAMI() int64 {
	e.amiMu.Lock()
	defer e.amiMu.Unlock()
	return e.lastAMI
}

// applyLocked folds one record into the analysis state. Mirrors the
// semantics of study.FromRecordsOpts(KeepAllObservations): users register
// in first-record order (even for records whose vector does not parse),
// User-Agent is first-non-empty-wins, surfaces are last-record-wins, and
// records of a vector outside vectors.All contribute nothing beyond
// user/surface bookkeeping. O(α(n)) amortized per record plus the
// distinct-set insertion (bounded by a user's distinct fingerprints for
// one vector — single digits in practice, Table 1).
func (e *Engine) applyLocked(r *storage.Record) {
	st := e.st
	uid, ok := e.users[r.UserID]
	if !ok {
		uid = int32(len(st.Users))
		e.users[r.UserID] = uid
		st.Users = append(st.Users, r.UserID)
		st.Seq = append(st.Seq, int64(uid))
		for s := range e.surfs {
			e.surfs[s] = append(e.surfs[s], "")
			st.Surfaces[s][""]++
		}
		for i := range e.vecs {
			e.vecs[i].distinct = append(e.vecs[i].distinct, nil)
			vs := &st.Vecs[i]
			vs.Graph.AddUser()
			vs.Distinct = append(vs.Distinct, 0)
		}
	}
	if e.surfs[surfUA][uid] == "" && r.UserAgent != "" {
		e.setSurface(surfUA, uid, r.UserAgent)
	}
	for s := range e.surfs {
		if surfaceKeys[s] == "" {
			continue
		}
		if v, ok := r.Surfaces[surfaceKeys[s]]; ok && v != e.surfs[s][uid] {
			e.setSurface(s, uid, v)
		}
	}
	st.Records++

	v, err := vectors.ParseID(r.Vector)
	if err != nil {
		return // auxiliary rows ride in Surfaces, as in FromRecords
	}
	i := vecIndex(v)
	if i < 0 {
		return // an extended vector: not part of the paper's tables
	}
	ix, vs := &e.vecs[i], &st.Vecs[i]
	fp, ok := ix.intern[r.Hash]
	if !ok {
		fp = int32(len(vs.Hashes))
		ix.intern[r.Hash] = fp
		vs.Hashes = append(vs.Hashes, r.Hash)
		vs.Graph.EnsureUniverse(int(fp) + 1)
	}
	vs.Graph.AddObservation(uid, fp)
	insertSorted(&ix.distinct[uid], fp)
	vs.Distinct[uid] = len(ix.distinct[uid])
	vs.Obs++
}

// setSurface moves user uid's count on surface s from its current value
// to v.
func (e *Engine) setSurface(s int, uid int32, v string) {
	counts := e.st.Surfaces[s]
	old := e.surfs[s][uid]
	counts[old]--
	if counts[old] == 0 {
		delete(counts, old)
	}
	counts[v]++
	e.surfs[s][uid] = v
}

// insertSorted inserts v into the sorted slice *s if absent.
func insertSorted(s *[]int32, v int32) {
	d := *s
	lo, hi := 0, len(d)
	for lo < hi {
		mid := (lo + hi) / 2
		if d[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(d) && d[lo] == v {
		return
	}
	d = append(d, 0)
	copy(d[lo+1:], d[lo:])
	d[lo] = v
	*s = d
}
