package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"time"

	"repro/internal/collectserver"
	"repro/internal/storage"
	"repro/internal/study"
	"repro/internal/vectors"
	"repro/internal/verify"
)

// readMixConfig sizes the read_mix workload.
type readMixConfig struct {
	pop study.Config
	// trickle is the population new participants are drawn from; its Seed
	// is derived from the run's seed and its Users from trickleRate.
	trickle study.Config
	// readRate is the open-loop rate of the read connection (verify and
	// analytics reads), verifyShare the share of it that is /verify.
	readRate    float64
	verifyShare float64
	// statsEvery and trickleRate pace the second connection: /stats at a
	// low fixed rate and new participants' submissions.
	statsEvery  time.Duration
	trickleRate float64
	setups      int
}

var paperReadMix = readMixConfig{
	pop:         study.Config{Seed: 20220325, Users: 2093, Iterations: 30},
	trickle:     study.Config{Iterations: 30, IDPrefix: "t"},
	readRate:    400,
	verifyShare: 0.7,
	statsEvery:  4 * time.Second,
	trickleRate: 2,
	setups:      2,
}

// readWarmup precedes the measured read window: the restarted server's
// first requests are checked but not timed.
const readWarmup = time.Second

var analyticsReads = []string{"entropy", "clusters", "stability", "ami", "status"}

// readOp is one pre-built request of the read connection.
type readOp struct {
	path string
	body []byte           // nil for GET
	want *verify.Decision // expected /verify decision
}

// buildReads draws the read connection's requests: verify probes —
// genuine (samples from the claimed user's own history) or impostor
// (another user's) — with their expected decisions from an in-process
// engine enrolled with the same records, and analytics reads.
func buildReads(n int, share float64, ps []*participant, ref *verify.Engine, rng *rand.Rand) ([]readOp, error) {
	ops := make([]readOp, n)
	for i := range ops {
		if rng.Float64() >= share {
			ops[i] = readOp{path: "/api/v1/analytics/" + analyticsReads[rng.Intn(len(analyticsReads))]}
			continue
		}
		claimed := ps[rng.Intn(len(ps))]
		src := claimed
		if rng.Intn(2) == 1 {
			src = ps[rng.Intn(len(ps))]
		}
		req := collectserver.VerifyRequest{UserID: claimed.user}
		var samples []verify.Sample
		iters := len(src.recs) / len(vectors.All)
		for vi, v := range vectors.All {
			rec := src.recs[rng.Intn(iters)*len(vectors.All)+vi]
			req.Samples = append(req.Samples, collectserver.VerifySample{Vector: rec.Vector, Hash: rec.Hash})
			samples = append(samples, verify.Sample{Vector: v, Hash: rec.Hash})
		}
		d, err := ref.Verify(claimed.user, samples)
		if err != nil {
			return nil, err
		}
		// Normalize through JSON, the form the server's answer arrives in.
		var want verify.Decision
		b, _ := json.Marshal(d)
		if err := json.Unmarshal(b, &want); err != nil {
			return nil, err
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		ops[i] = readOp{path: "/api/v1/verify", body: body, want: &want}
	}
	return ops, nil
}

// runReadMix serves open-loop reads from a server restarted on a store
// preloaded with the population, while a second connection polls /stats
// and submits a trickle of new participants.
func (e *env) runReadMix(cfg readMixConfig, tr *tracer) (*report, error) {
	ps, err := renderPopulation(cfg.pop)
	if err != nil {
		return nil, err
	}
	tcfg := cfg.trickle
	tcfg.Seed = 1_000_003 + e.seed
	tcfg.Users = int(math.Ceil(cfg.trickleRate*e.seconds)) + 1
	trickle, err := renderPopulation(tcfg)
	if err != nil {
		return nil, err
	}
	ref := verify.New(verify.Config{})
	var preloaded []storage.Record
	for _, p := range ps {
		preloaded = append(preloaded, p.recs...)
	}
	ref.Enroll(preloaded)
	rng := rand.New(rand.NewSource(e.seed))
	nReads := int(cfg.readRate * (readWarmup.Seconds() + e.seconds))
	reads, err := buildReads(nReads, cfg.verifyShare, ps, ref, rng)
	if err != nil {
		return nil, err
	}
	ref = nil
	e.logf("read_mix: rendered %d+%d participants, %d reads", len(ps), len(trickle), len(reads))

	// The preloaded store is written once; each setup restarts on a copy.
	src, err := os.MkdirTemp(e.tmp, "preload-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(src)
	if err := preload(filepath.Join(src, "fp.ndjson"), ps); err != nil {
		return nil, err
	}
	tg, store, setupS, err := e.setup(tr, cfg.setups, func(dir string) error {
		return copyFile(filepath.Join(src, "fp.ndjson"), filepath.Join(dir, "fp.ndjson"))
	})
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(filepath.Dir(store))
	e.logf("read_mix: set up %d times, median %.3fs", cfg.setups, setupS)
	base := tg.URL()
	t := &tally{}
	connA, connB := e.conns()
	var at engineMark
	if tr != nil {
		at = tg.(*inprocServer).mark()
	}
	runtime.GC() // the generator's own collections stay out of the window
	rt := startRuntimeWindow(tr)
	cpu0, host0 := tg.CPUSeconds(), readHostStat()
	t0 := time.Now().Add(10 * time.Millisecond)
	measureFrom := t0.Add(readWarmup)
	nPre := int64(len(preloaded))

	// Connection B: /stats at a fixed rate and the trickle, in due order.
	type bOp struct {
		due time.Time
		p   *participant // nil: /stats
	}
	var bOps []bOp
	for d := cfg.statsEvery / 2; d.Seconds() < e.seconds; d += cfg.statsEvery {
		bOps = append(bOps, bOp{due: measureFrom.Add(d)})
	}
	for j, p := range trickle {
		d := time.Duration((float64(j) + 0.5) / cfg.trickleRate * float64(time.Second))
		if d.Seconds() >= e.seconds {
			break
		}
		bOps = append(bOps, bOp{due: measureFrom.Add(d), p: p})
	}
	sort.SliceStable(bOps, func(i, j int) bool { return bOps[i].due.Before(bOps[j].due) })
	var statsLat []float64
	var sent []storage.Record
	trickleAcked := int64(0)
	maxTrickle := 0
	for _, p := range trickle {
		maxTrickle += len(p.recs)
	}
	bDone := make(chan struct{})
	go func() {
		defer close(bDone)
		pc := &pacer{}
		for _, op := range bOps {
			due := pc.wait(op.due)
			if op.p == nil {
				code, body, err := call(connB, "GET", base+"/api/v1/stats", nil)
				statsLat = append(statsLat, ms(time.Since(due)))
				pc.done()
				var st struct {
					Records int64 `json:"records"`
				}
				if t.expect("stats", code, err, http.StatusOK) {
					err := data(body, &st)
					t.check(err == nil && st.Records >= nPre && st.Records <= nPre+int64(maxTrickle),
						"stats: %d records (preloaded %d, %v)", st.Records, nPre, err)
				}
				continue
			}
			token, ok := session(connB, base, op.p, t)
			if ok {
				off := 0
				for i, n := range op.p.counts {
					if submit(connB, base, token, op.p, i, t) {
						sent = append(sent, op.p.recs[off:off+n]...)
						trickleAcked += int64(n)
					}
					off += n
				}
			}
			pc.done()
		}
	}()

	// Connection A: the open-loop read mix.
	pcA := &pacer{}
	interval := time.Duration(float64(time.Second) / cfg.readRate)
	var verifyLat, readLat []float64
	for i, op := range reads {
		due := t0.Add(time.Duration(i) * interval)
		timed := !due.Before(measureFrom) // warm-up requests are checked, not timed
		from := pcA.wait(due)
		method := "GET"
		if op.body != nil {
			method = "POST"
		}
		code, body, err := call(connA, method, base+op.path, op.body)
		lat := ms(time.Since(from))
		pcA.done()
		if !t.expect(op.path, code, err, http.StatusOK) {
			continue
		}
		if op.want != nil {
			if timed {
				verifyLat = append(verifyLat, lat)
			}
			var got verify.Decision
			err := data(body, &got)
			t.check(err == nil && reflect.DeepEqual(got, *op.want),
				"verify %s: decision differs from the in-process engine (%v)", op.want.UserID, err)
			continue
		}
		if timed {
			readLat = append(readLat, lat)
		}
		var snap struct {
			Records int64 `json:"records"`
		}
		err = data(body, &snap)
		t.check(err == nil && snap.Records >= nPre, "%s: %d records, preloaded %d (%v)", op.path, snap.Records, nPre, err)
	}
	<-bDone
	rtStats := rt.end()
	cpuS, steal := tg.CPUSeconds()-cpu0, stealShare(host0, readHostStat())
	e.logf("read_mix: window done")

	// The trickle must become visible, then the store must hold exactly
	// the preloaded and the acknowledged records.
	want := nPre + trickleAcked
	deadline := time.Now().Add(60 * time.Second)
	var n int64
	for {
		n, err = statusRecords(connA, base)
		if err == nil && n >= want || time.Now().After(deadline) {
			break
		}
		time.Sleep(pollPeriod)
	}
	t.check(err == nil && n == want, "analytics status: %d records, want %d (%v)", n, want, err)
	rss, err := tg.Stop()
	if err != nil {
		return nil, err
	}
	var layers *metrics
	if tr != nil {
		layers = layerReport(tr, tg.(*inprocServer), at, rtStats)
		layers.set("loadgen.late_p99_ms", quantile(pcA.late, 0.99), "ms")
		layers.set("collectserver.shed", float64(t.shed), "count")
	}
	e.logf("read_mix: server stopped")
	e.checkStore(t, store, append(preloaded, sent...), func([]storage.Record) {})

	r := newReport(t)
	r.e2e("setup_s", setupS, "s")
	r.e2e("cpu_s", cpuS, "s")
	r.e2e("peak_rss_mb", rss, "MB")
	r.info("read_p50_ms", median(readLat), "ms")
	r.info("read_p99_ms", quantile(readLat, 0.99), "ms")
	r.info("stats_p50_ms", median(statsLat), "ms")
	r.info("verify_p50_ms", median(verifyLat), "ms")
	r.info("verify_p99_ms", quantile(verifyLat, 0.99), "ms")
	r.info("loadgen.late_p50_ms", median(pcA.late), "ms")
	r.info("loadgen.late_p99_ms", quantile(pcA.late, 0.99), "ms")
	r.info("host.steal_share", steal, "ratio")
	r.info("samples.read", float64(len(readLat)), "count")
	r.info("samples.verify", float64(len(verifyLat)), "count")
	r.info("samples.stats", float64(len(statsLat)), "count")
	r.layers = layers
	return r, nil
}

func copyFile(from, to string) error {
	in, err := os.Open(from)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return fmt.Errorf("copy store: %w", err)
	}
	return out.Close()
}
