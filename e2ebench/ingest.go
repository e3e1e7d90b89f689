package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"repro/internal/diversity"
	"repro/internal/storage"
	"repro/internal/streaming"
	"repro/internal/study"
	"repro/internal/vectors"
)

// ingestConfig sizes the ingest workload.
type ingestConfig struct {
	pop study.Config
	// openRate is the open-loop arrival rate in participants per second;
	// the open-loop parts together last openShare of the run's seconds,
	// capped at half the population. The closed-loop parts submit the rest.
	openRate  float64
	openShare float64
	setups    int
}

// ingestBlocks is how many open-then-closed blocks an ingest run has.
const ingestBlocks = 8

var paperIngest = ingestConfig{
	pop:       study.Config{Seed: 20220325, Users: 2093, Iterations: 30},
	openRate:  100,
	openShare: 0.4,
	setups:    15,
}

// startTarget starts the system under test on store: fpserver as a child
// process, or with tr set the traced in-process composition.
func (e *env) startTarget(tr *tracer, store string) (target, time.Duration, error) {
	if tr != nil {
		return startInproc(tr, e.flags, store)
	}
	return startProc(filepath.Join(e.bin, "fpserver"), e.flags, store)
}

// setup starts the target n times on the store built by prepare (run once
// per start, outside the timed part) and keeps the last one running; it
// returns the median start-up time.
func (e *env) setup(tr *tracer, n int, prepare func(dir string) error) (target, string, float64, error) {
	var times []float64
	for i := 0; i < n; i++ {
		dir, err := os.MkdirTemp(e.tmp, "store-")
		if err != nil {
			return nil, "", 0, err
		}
		if err := prepare(dir); err != nil {
			return nil, "", 0, err
		}
		store := filepath.Join(dir, "fp.ndjson")
		tg, d, err := e.startTarget(tr, store)
		if err != nil {
			return nil, "", 0, err
		}
		times = append(times, d.Seconds())
		if i == n-1 {
			return tg, store, median(times), nil
		}
		if _, err := tg.Stop(); err != nil {
			return nil, "", 0, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, "", 0, err
		}
	}
	return nil, "", 0, fmt.Errorf("setup: no starts requested")
}

// runIngest replays the population into an empty store in blocks of an
// open-loop part at a fixed arrival rate (latency, lag) and a closed-loop
// part (throughput). tr, when set, traces the in-process composition
// instead of driving fpserver.
func (e *env) runIngest(cfg ingestConfig, tr *tracer) (*report, error) {
	ps, err := renderPopulation(cfg.pop)
	if err != nil {
		return nil, err
	}
	e.logf("ingest: rendered %d participants", len(ps))
	order := shuffled(ps, e.seed)
	nOpen := min(int(cfg.openRate*cfg.openShare*e.seconds), len(order)/2)

	tg, store, setupS, err := e.setup(tr, cfg.setups, func(string) error { return nil })
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(filepath.Dir(store))
	e.logf("ingest: set up %d times, median %.3fs", cfg.setups, setupS)
	t := &tally{}
	base := tg.URL()
	sub, pollC := e.conns()
	acks := &ackLog{}
	stop := make(chan struct{})
	pollDone := make(chan struct{})
	go func() { defer close(pollDone); poller(pollC, base, acks, stop, t) }()

	var at engineMark
	if tr != nil {
		at = tg.(*inprocServer).mark()
	}
	runtime.GC() // the generator's own collections stay out of the window
	rt := startRuntimeWindow(tr)
	host0 := readHostStat()
	var sent []storage.Record
	var users int
	visit := func(p *participant, pc *pacer, due func() time.Time, lat *[]float64) {
		var d time.Time
		if pc != nil {
			pc.wait(due())
		}
		token, ok := session(sub, base, p, t)
		if pc != nil {
			pc.done()
		}
		if !ok {
			return
		}
		users++
		off := 0
		for i, n := range p.counts {
			if pc != nil {
				d = pc.wait(due())
			}
			good := submit(sub, base, token, p, i, t)
			if pc != nil {
				pc.done()
			}
			if good {
				if lat != nil {
					*lat = append(*lat, ms(time.Since(d)))
				}
				acks.ack(n)
				sent = append(sent, p.recs[off:off+n]...)
			}
			off += n
		}
	}

	// The run is ingestBlocks blocks, each an open-loop part (requests
	// due at a fixed interval whatever the server's speed) followed by a
	// closed-loop part (participants back to back). Each block yields one
	// value per metric and the run reports their median, so a stretch of
	// contention on a shared machine moves only the blocks it covers.
	var submitLat, blockLat, closedPerRec, cpuPerRec []float64
	var closedS float64
	pc := &pacer{}
	perVisit := 1 + len(order[0].chunks)
	interval := time.Duration(float64(time.Second) / (cfg.openRate * float64(perVisit)))
	nClosed := len(order) - nOpen
	for b := 0; b < ingestBlocks; b++ {
		a0, c0 := acks.acked(), tg.CPUSeconds()
		open := order[nOpen*b/ingestBlocks : nOpen*(b+1)/ingestBlocks]
		closed := order[nOpen+nClosed*b/ingestBlocks : nOpen+nClosed*(b+1)/ingestBlocks]
		t0 := time.Now().Add(time.Millisecond)
		k := 0
		due := func() time.Time { d := t0.Add(time.Duration(k) * interval); k++; return d }
		var lat []float64
		for _, p := range open {
			visit(p, pc, due, &lat)
		}
		submitLat = append(submitLat, lat...)
		if len(lat) > 0 {
			blockLat = append(blockLat, median(lat))
		}
		a1, s1 := acks.acked(), time.Now()
		for _, p := range closed {
			visit(p, nil, nil, nil)
		}
		d := time.Since(s1).Seconds()
		closedS += d
		if n := acks.acked() - a1; n > 0 {
			closedPerRec = append(closedPerRec, d/float64(n))
		}
		if n := acks.acked() - a0; n > 0 {
			cpuPerRec = append(cpuPerRec, (tg.CPUSeconds()-c0)/float64(n))
		}
	}
	close(stop)
	<-pollDone
	rtStats := rt.end()
	steal := stealShare(host0, readHostStat())
	acked := acks.acked()
	cpuS := median(cpuPerRec) * float64(acked)
	e.logf("ingest: %d records acknowledged and visible", acked)

	// Output checks against the running server.
	code, body, err := call(sub, "GET", base+"/api/v1/stats", nil)
	var stats struct {
		Records int `json:"records"`
		Users   int `json:"users"`
	}
	if t.expect("stats", code, err, http.StatusOK) {
		err := data(body, &stats)
		t.check(err == nil && int64(stats.Records) == acked && stats.Users == users,
			"stats: %d records / %d users, acknowledged %d / %d (%v)", stats.Records, stats.Users, acked, users, err)
	}
	n, err := statusRecords(sub, base)
	t.check(err == nil && n == acked, "analytics status: %d records, acknowledged %d (%v)", n, acked, err)
	var ent streaming.EntropySnapshot
	code, body, err = call(sub, "GET", base+"/api/v1/analytics/entropy", nil)
	gotEntropy := t.expect("entropy", code, err, http.StatusOK) && data(body, &ent) == nil

	rss, err := tg.Stop()
	if err != nil {
		return nil, err
	}
	var layers *metrics
	if tr != nil {
		layers = layerReport(tr, tg.(*inprocServer), at, rtStats)
		layers.set("loadgen.late_p99_ms", quantile(pc.late, 0.99), "ms")
		layers.set("collectserver.shed", float64(t.shed), "count")
	}
	e.logf("ingest: server stopped")
	e.checkStore(t, store, sent, func(recs []storage.Record) {
		if !gotEntropy {
			return
		}
		ds, err := study.FromRecordsOpts(recs, study.LoadOptions{KeepAllObservations: true})
		t.check(err == nil && reflect.DeepEqual(ent.Rows, batchRows(ds)),
			"analytics entropy rows differ from the batch reference (%v)", err)
	})

	r := newReport(t)
	r.e2e("setup_s", setupS, "s")
	r.e2e("cpu_s", cpuS, "s")
	r.e2e("peak_rss_mb", rss, "MB")
	r.info("ingest_records_per_s", 1/median(closedPerRec), "1/s")
	r.info("submit_p50_ms", median(blockLat), "ms")
	r.info("submit_p99_ms", quantile(submitLat, 0.99), "ms")
	r.info("visible_lag_p50_ms", median(acks.lags), "ms")
	r.info("visible_lag_p99_ms", quantile(acks.lags, 0.99), "ms")
	r.info("closed_loop_s", closedS, "s")
	r.info("loadgen.late_p50_ms", median(pc.late), "ms")
	r.info("loadgen.late_p99_ms", quantile(pc.late, 0.99), "ms")
	r.info("host.steal_share", steal, "ratio")
	r.info("samples.submit", float64(len(submitLat)), "count")
	r.info("samples.visible_lag", float64(len(acks.lags)), "count")
	r.layers = layers
	return r, nil
}

// conns returns the submitting and the polling connection: two when the
// machine has at least two CPUs, else one shared.
func (e *env) conns() (*http.Client, *http.Client) {
	a := httpConn()
	if e.nproc < 2 {
		return a, a
	}
	return a, httpConn()
}

// checkStore reopens the store after the server stopped and checks it
// holds exactly the acknowledged records, in order; more checks on the
// stored records run in also.
func (e *env) checkStore(t *tally, path string, sent []storage.Record, also func([]storage.Record)) {
	st, err := storage.Open(path, storage.Options{})
	if err != nil {
		t.fail("reopen store: %v", err)
		return
	}
	recs, err := st.All()
	st.Close()
	if err != nil {
		t.fail("read store: %v", err)
		return
	}
	good := len(recs) == len(sent)
	for i := 0; good && i < len(recs); i++ {
		a, b := recs[i], sent[i]
		good = a.UserID == b.UserID && a.Vector == b.Vector && a.Iteration == b.Iteration &&
			a.Hash == b.Hash && a.UserAgent == b.UserAgent && reflect.DeepEqual(a.Surfaces, b.Surfaces)
	}
	t.check(good, "store holds %d records, acknowledged %d, or their content differs", len(recs), len(sent))
	also(recs)
}

// batchRows is the batch side of the analytics entropy table, in the
// engine's row order, through the same float kernels.
func batchRows(ds *study.Dataset) []streaming.DiversityRow {
	row := func(name string, s diversity.Summary) streaming.DiversityRow {
		return streaming.DiversityRow{Name: name, Users: s.Users, Distinct: s.Distinct,
			Unique: s.Unique, EntropyBits: s.EntropyBits, Normalized: s.Normalized}
	}
	var rows []streaming.DiversityRow
	for _, v := range vectors.All {
		rows = append(rows, row(v.String(), diversity.SummarizeStable(ds.Labels(v))))
	}
	rows = append(rows, row("Combined", diversity.SummarizeStable(ds.CombinedLabels())))
	rows = append(rows, row("Canvas", diversity.SummarizeStable(ds.Canvas)))
	rows = append(rows, row("Fonts", diversity.SummarizeStable(ds.Fonts)))
	rows = append(rows, row("MathJS", diversity.SummarizeStable(ds.MathJS)))
	rows = append(rows, row("Platform", diversity.SummarizeStable(ds.Platforms)))
	rows = append(rows, row("User-Agent", diversity.SummarizeStable(ds.UA)))
	return rows
}
