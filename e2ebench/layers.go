package main

import (
	"os"
	"runtime"
	"strings"
	"time"
)

// layerMetrics lists every per-layer metric in BENCHMARK.json. A traced run
// reports all of them; one a workload does not exercise reads 0 and is
// named on the "unmeasured" line.
var layerMetrics = []struct{ name, unit string }{
	{"loadgen.late_p99_ms", "ms"},
	{"collectserver.submit_self_us_per_record", "us"},
	{"collectserver.read_self_us", "us"},
	{"collectserver.verify_self_us", "us"},
	{"collectserver.shed", "count"},
	{"storage.append_us_per_record", "us"},
	{"storage.append_calls", "count"},
	{"storage.bytes_per_record", "B"},
	{"storage.all_s", "s"},
	{"storage.open_s", "s"},
	{"storage.recover_s", "s"},
	{"streaming.enqueue_us_p99", "us"},
	{"streaming.queue_full_waits", "count"},
	{"streaming.apply_busy_s", "s"},
	{"streaming.ami_refresh_s", "s"},
	{"streaming.ami_refreshes", "count"},
	{"streaming.bootstrap_s", "s"},
	{"streaming.diversity_us", "us"},
	{"streaming.clusters_us", "us"},
	{"streaming.stability_us", "us"},
	{"streaming.ami_us", "us"},
	{"streaming.status_us", "us"},
	{"verify.enroll_us_per_record", "us"},
	{"verify.decide_us_p50", "us"},
	{"verify.decide_us_p99", "us"},
	{"vectors.render_s", "s"},
	{"vectors.cache_misses", "count"},
	{"vectors.render_us_per_miss", "us"},
	{"vectors.cache_hit_ratio", "ratio"},
	{"study.figure5_s", "s"},
	{"study.evolution_s", "s"},
	{"study.other_analyses_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.alloc_mb", "MB"},
	{"trace.submit_coverage", "ratio"},
	{"trace.overhead", "ratio"},
}

// complete returns ms in layerMetrics order with every listed metric
// present, and the names that had no measurement.
func complete(ms *metrics) (*metrics, []string) {
	out := &metrics{}
	var missing []string
	for _, l := range layerMetrics {
		v, ok := ms.get(l.name)
		if !ok {
			missing = append(missing, l.name)
		}
		out.set(l.name, v, l.unit)
	}
	return out, missing
}

// runtimeWindow measures the Go runtime's GC and allocation over the
// measured window of a traced (in-process) run. The process also runs the
// load generator, whose allocations are included.
type runtimeWindow struct {
	on     bool
	before runtime.MemStats
}

type runtimeStats struct {
	gcCycles uint32
	pauseMS  float64
	allocMB  float64
	measured bool
}

func startRuntimeWindow(tr *tracer) *runtimeWindow {
	w := &runtimeWindow{on: tr != nil}
	if w.on {
		runtime.ReadMemStats(&w.before)
	}
	return w
}

func (w *runtimeWindow) end() runtimeStats {
	if !w.on {
		return runtimeStats{}
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return runtimeStats{
		gcCycles: after.NumGC - w.before.NumGC,
		pauseMS:  float64(after.PauseTotalNs-w.before.PauseTotalNs) / 1e6,
		allocMB:  float64(after.TotalAlloc-w.before.TotalAlloc) / (1 << 20),
		measured: true,
	}
}

func (rs runtimeStats) set(ms *metrics) {
	if !rs.measured {
		return
	}
	ms.set("runtime.gc_cycles", float64(rs.gcCycles), "count")
	ms.set("runtime.gc_pause_ms", rs.pauseMS, "ms")
	ms.set("runtime.alloc_mb", rs.allocMB, "MB")
}

// engineMark is the engine's async-work counters at the start of the
// measured window; the window's share is the difference at the end.
type engineMark struct {
	applyS, amiS    float64
	amiCount, waits int64
}

func (s *inprocServer) mark() engineMark {
	return engineMark{
		applyS:   s.engineHistSum("streaming_apply_seconds"),
		amiS:     s.engineHistSum("streaming_ami_refresh_seconds"),
		amiCount: s.engineCounter("streaming_ami_refreshes_total"),
		waits:    s.engineCounter("streaming_queue_full_waits_total"),
	}
}

// layerReport derives the server-side per-layer metrics from the spans of
// a traced run and the engine's own metrics. Call it after Stop, so the
// engine's Close has run every applied batch's side effects.
func layerReport(tr *tracer, s *inprocServer, at engineMark, rs runtimeStats) *metrics {
	spans := tr.snapshot()
	self := selfTimes(spans)
	byName := map[string][]span{}
	records := map[int64]int{} // request span → records appended under it
	for _, sp := range spans {
		byName[sp.Name] = append(byName[sp.Name], sp)
		if sp.Name == "storage.append" && sp.Req != 0 {
			records[sp.Req] += sp.Records
		}
	}
	durs := func(name string, scale func(time.Duration) float64) []float64 {
		var out []float64
		for _, sp := range byName[name] {
			out = append(out, scale(sp.dur()))
		}
		return out
	}
	ms := &metrics{}
	setMedian := func(metric, span string, scale func(time.Duration) float64, unit string) {
		if d := durs(span, scale); len(d) > 0 {
			ms.set(metric, median(d), unit)
		}
	}
	secs := func(d time.Duration) float64 { return d.Seconds() }

	// collectserver: request spans' self time.
	var subSelf time.Duration
	var subRecs int
	var readSelf, verifySelf []float64
	var covered, total time.Duration
	reqSelf := map[int64]time.Duration{}
	for _, sp := range spans {
		if sp.Req != 0 {
			reqSelf[sp.Req] += self[sp.ID]
		}
	}
	for _, sp := range spans {
		switch {
		case sp.Name == "http /api/v1/fingerprints":
			subSelf += self[sp.ID]
			subRecs += records[sp.ID]
			covered += reqSelf[sp.ID]
			total += sp.dur()
		case sp.Name == "http /api/v1/verify":
			verifySelf = append(verifySelf, us(self[sp.ID]))
		case strings.HasPrefix(sp.Name, "http /api/v1/analytics/"):
			readSelf = append(readSelf, us(self[sp.ID]))
		}
	}
	if subRecs > 0 {
		ms.set("collectserver.submit_self_us_per_record", us(subSelf)/float64(subRecs), "us")
		ms.set("trace.submit_coverage", float64(covered)/float64(total), "ratio")
	}
	if len(readSelf) > 0 {
		ms.set("collectserver.read_self_us", median(readSelf), "us")
	}
	if len(verifySelf) > 0 {
		ms.set("collectserver.verify_self_us", median(verifySelf), "us")
	}

	// storage.
	if app := byName["storage.append"]; len(app) > 0 {
		var d time.Duration
		var n int
		for _, sp := range app {
			d += sp.dur()
			n += sp.Records
		}
		ms.set("storage.append_us_per_record", us(d)/float64(max(n, 1)), "us")
		ms.set("storage.append_calls", float64(len(app)), "count")
	}
	if fi, err := os.Stat(s.st.Path()); err == nil && s.st.Count() > 0 {
		ms.set("storage.bytes_per_record", float64(fi.Size())/float64(s.st.Count()), "B")
	}
	// A full scan on the request path (/stats) is what storage.all_s
	// reports; set-up scans count only when no request made one.
	var scans []float64
	for _, sp := range byName["storage.all"] {
		if sp.Req != 0 {
			scans = append(scans, sp.dur().Seconds())
		}
	}
	if len(scans) > 0 {
		ms.set("storage.all_s", median(scans), "s")
	} else {
		setMedian("storage.all_s", "storage.all", secs, "s")
	}
	setMedian("storage.open_s", "storage.open", secs, "s")
	setMedian("storage.recover_s", "storage.recover", secs, "s")

	// streaming: calls on the request path from spans, the engine's own
	// goroutine from its metrics.
	if d := durs("streaming.enqueue", us); len(d) > 0 {
		ms.set("streaming.enqueue_us_p99", quantile(d, 0.99), "us")
	}
	end := s.mark()
	ms.set("streaming.queue_full_waits", float64(end.waits-at.waits), "count")
	ms.set("streaming.apply_busy_s", end.applyS-at.applyS, "s")
	ms.set("streaming.ami_refresh_s", end.amiS-at.amiS, "s")
	ms.set("streaming.ami_refreshes", float64(end.amiCount-at.amiCount), "count")
	setMedian("streaming.bootstrap_s", "streaming.bootstrap", secs, "s")
	for _, read := range []string{"diversity", "clusters", "stability", "ami", "status"} {
		setMedian("streaming."+read+"_us", "streaming."+read, us, "us")
	}

	// verify.
	if en := byName["verify.enroll"]; len(en) > 0 {
		var d time.Duration
		var n int
		for _, sp := range en {
			d += sp.dur()
			n += sp.Records
		}
		if n > 0 {
			ms.set("verify.enroll_us_per_record", us(d)/float64(n), "us")
		}
	}
	if d := durs("verify.decide", us); len(d) > 0 {
		ms.set("verify.decide_us_p50", median(d), "us")
		ms.set("verify.decide_us_p99", quantile(d, 0.99), "us")
	}
	rs.set(ms)
	return ms
}
