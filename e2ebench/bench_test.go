package main

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/study"
)

func TestSelfTimes(t *testing.T) {
	// root [0,100] has children a [10,40] and b [30,60] that overlap, and
	// c [90,120] that runs past the root's end; a has a grandchild g
	// [15,25] that must not count against the root.
	spans := []span{
		{Name: "root", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "b", ID: 3, Parent: 1, Start: 30, End: 60},
		{Name: "c", ID: 4, Parent: 1, Start: 90, End: 120},
		{Name: "g", ID: 5, Parent: 2, Start: 15, End: 25},
		{Name: "leaf", ID: 6, Start: 200, End: 210},
	}
	got := selfTimes(spans)
	want := map[int64]time.Duration{
		1: 100 - 50 - 10, // union of a∪b is [10,60], c is clipped to [90,100]
		2: 30 - 10,
		3: 30,
		4: 30,
		5: 10,
		6: 10,
	}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self %d, want %d", id, got[id], w)
		}
	}
}

func TestTracerParentage(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("http /x")
	inner := tr.begin("storage.append")
	inner(3)
	done := make(chan struct{})
	go func() { tr.begin("other goroutine")(0); close(done) }()
	<-done
	outer(0)
	byName := map[string]span{}
	for _, s := range tr.snapshot() {
		byName[s.Name] = s
	}
	req := byName["http /x"]
	if req.Parent != 0 || req.Req != req.ID {
		t.Fatalf("request span %+v: want a root that is its own request", req)
	}
	if s := byName["storage.append"]; s.Parent != req.ID || s.Req != req.ID || s.Records != 3 {
		t.Fatalf("child span %+v: want parent and request %d with 3 records", s, req.ID)
	}
	if s := byName["other goroutine"]; s.Parent != 0 || s.Req != 0 {
		t.Fatalf("span on another goroutine %+v must not join the request", s)
	}
}

// tinyConfigs runs every workload and output check on a population small
// enough for a unit test.
var tinyConfigs = configs{
	ingest: ingestConfig{
		pop:      study.Config{Seed: 20220325, Users: 12, Iterations: 3},
		openRate: 20, openShare: 0.4, setups: 2,
	},
	readMix: readMixConfig{
		pop:         study.Config{Seed: 20220325, Users: 12, Iterations: 3},
		trickle:     study.Config{Iterations: 3, IDPrefix: "t"},
		readRate:    60,
		verifyShare: 0.7,
		statsEvery:  400 * time.Millisecond,
		trickleRate: 3,
		setups:      2,
	},
	study: studyConfig{
		args:   []string{"-users", "20", "-followup-users", "8", "-iterations", "3", "-evolution-users", "10"},
		digest: "66378b5ce32f128e755c8fc44d21886b0ff8934158f9169327d908ad030d2171",
		setups: 3,
	},
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds fpserver and fpstudy")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/fpserver", "./cmd/fpstudy")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, wl := range []string{"ingest", "read_mix", "study"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl+"/trace"+trace, func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"-workload", wl, "-seed", "7", "-seconds", "1", "-trace", trace,
					"-fpserver-flags", "-analytics -verify -sync -rate 1000000 -session-rate 10000000",
					"-root", "..", "-bin", bin, "-tmp", t.TempDir()}
				if err := run(args, &out, tinyConfigs); err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v\n%s", res, out.String())
				}
				want := []string{"setup_s", "cpu_s", "peak_rss_mb"}
				if trace == "1" {
					want = nil
					for _, l := range layerMetrics {
						want = append(want, l.name)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d: %v", len(res.Metrics), len(want), res.Metrics)
				}
				for _, name := range want {
					if _, ok := res.Metrics[name]; !ok {
						t.Errorf("metric %s missing", name)
					}
				}
			})
		}
	}
}
