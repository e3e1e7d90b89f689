package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/study"
	"repro/internal/vectors"
)

// studyConfig sizes the study workload.
type studyConfig struct {
	// args are fpstudy's flags (none: the paper-scale defaults) and digest
	// the SHA-256 of the standard output they must reproduce.
	args   []string
	digest string
	// setups is how many times fpstudy is launched to time its start-up;
	// every launch but the last is stopped once rendering begins.
	setups int
}

// paperStudy runs fpstudy at its defaults: 2093 main + 528 follow-up +
// 800 evolution users. The digest was recorded from this configuration;
// the output is deterministic, so any difference is a changed result.
var paperStudy = studyConfig{
	digest: "6834e23a1b3bfc1f14577077feb58e6ba2538dc0945c155c2aeb98ac3c179b6f",
	setups: 11,
}

// studyOpts mirrors the fpstudy flags the in-process traced run needs.
type studyOpts struct {
	users, followUp, iterations, evolution int
}

func parseStudyArgs(args []string) (studyOpts, error) {
	o := studyOpts{users: 2093, followUp: 528, iterations: 30, evolution: 800}
	for i := 0; i+1 < len(args); i += 2 {
		var n int
		if _, err := fmt.Sscan(args[i+1], &n); err != nil {
			return o, fmt.Errorf("fpstudy arg %s: %v", args[i], err)
		}
		switch args[i] {
		case "-users":
			o.users = n
		case "-followup-users":
			o.followUp = n
		case "-iterations":
			o.iterations = n
		case "-evolution-users":
			o.evolution = n
		default:
			return o, fmt.Errorf("unsupported fpstudy arg %s", args[i])
		}
	}
	if len(args)%2 != 0 {
		return o, fmt.Errorf("fpstudy args must be flag/value pairs: %q", args)
	}
	return o, nil
}

// fpstudyRun is one launched fpstudy.
type fpstudyRun struct {
	cmd     *exec.Cmd
	started time.Duration // launch until rendering begins
	hash    chan string
	waitErr chan error
	tail    *tailBuffer
}

// launchStudy starts fpstudy and returns once it logs that the main
// study's rendering begins.
func launchStudy(bin string, args []string) (*fpstudyRun, error) {
	start := time.Now()
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = childAttr()
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	r := &fpstudyRun{cmd: cmd, hash: make(chan string, 1), waitErr: make(chan error, 1), tail: &tailBuffer{}}
	go func() {
		h := sha256.New()
		_, _ = io.Copy(h, stdout)
		r.hash <- hex.EncodeToString(h.Sum(nil))
	}()
	began := make(chan time.Duration, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if strings.Contains(sc.Text(), "simulating main study") {
				select {
				case began <- time.Since(start):
				default:
				}
			}
			r.tail.add(sc.Text())
		}
		h := <-r.hash
		r.waitErr <- cmd.Wait()
		r.hash <- h
	}()
	select {
	case r.started = <-began:
		return r, nil
	case err := <-r.waitErr:
		return nil, fmt.Errorf("fpstudy exited before rendering: %v\n%s", err, r.tail)
	case <-time.After(60 * time.Second):
		_ = cmd.Process.Kill()
		<-r.waitErr
		return nil, fmt.Errorf("fpstudy did not start rendering within 60s")
	}
}

// runStudy checks the 64-user golden configuration in-process, then runs
// fpstudy (or, traced, the same pipeline in-process) and checks its
// output digest.
func (e *env) runStudy(cfg studyConfig, tr *tracer) (*report, error) {
	t := &tally{}
	checkGolden(t, e.root)

	var r *report
	if tr != nil {
		r = newReport(t)
		if err := e.tracedStudy(cfg, tr, r); err != nil {
			return nil, err
		}
		return r, nil
	}

	bin := filepath.Join(e.bin, "fpstudy")
	var setups []float64
	host0 := readHostStat()
	var run *fpstudyRun
	var start time.Time
	for i := 0; i < cfg.setups; i++ {
		start = time.Now()
		var err error
		if run, err = launchStudy(bin, cfg.args); err != nil {
			return nil, err
		}
		setups = append(setups, run.started.Seconds())
		if i < cfg.setups-1 {
			_ = run.cmd.Process.Kill()
			<-run.waitErr
		}
	}
	err := <-run.waitErr
	studyS := time.Since(start).Seconds()
	got := <-run.hash
	if err != nil {
		t.fail("fpstudy: %v\n%s", err, run.tail)
	} else {
		t.ok()
	}
	t.check(got == cfg.digest, "fpstudy output digest %s, recorded %s", got, cfg.digest)
	ps := run.cmd.ProcessState

	r = newReport(t)
	r.e2e("setup_s", median(setups), "s")
	r.e2e("cpu_s", (ps.UserTime() + ps.SystemTime()).Seconds(), "s")
	r.e2e("peak_rss_mb", maxRSSMB(ps), "MB")
	r.info("study_s", studyS, "s")
	r.info("host.steal_share", stealShare(host0, readHostStat()), "ratio")
	return r, nil
}

// tracedStudy composes fpstudy's pipeline in-process — the same calls in
// the same order as cmd/fpstudy — timing study.RunContext and each
// core.Write*Context call.
func (e *env) tracedStudy(cfg studyConfig, tr *tracer, r *report) error {
	o, err := parseStudyArgs(cfg.args)
	if err != nil {
		return err
	}
	before := renderCounters()
	rt := startRuntimeWindow(tr)
	cpu0 := selfCPUSeconds()
	ctx := context.Background()
	var out bytes.Buffer
	step := func(name string, fn func() error) error {
		done := tr.begin(name)
		err := fn()
		done(0)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	start := time.Now()
	cache := vectors.NewCache()
	var mainDS, fu *study.Dataset
	if err := step("study.run main", func() (err error) {
		mainDS, err = study.RunContext(ctx, study.Config{Seed: core.MainStudySeed, Users: o.users,
			Iterations: o.iterations, RenderCache: cache})
		return err
	}); err != nil {
		return err
	}
	if o.followUp > 0 {
		if err := step("study.run followup", func() (err error) {
			fu, err = study.RunContext(ctx, study.Config{Seed: core.FollowUpSeed, Users: o.followUp,
				Iterations: o.iterations, Mix: population.FollowUpMix(), IDPrefix: "f", RenderCache: cache})
			return err
		}); err != nil {
			return err
		}
	}
	// Each step is one Write*Context call of cmd/fpstudy, followed by the
	// blank line fpstudy prints after it.
	type write struct {
		name string
		fn   func() error
	}
	blank := func(err error) error { fmt.Fprintln(&out); return err }
	writes := []write{{"core.write demographics", func() error {
		return blank(core.WriteDemographicsContext(ctx, &out, mainDS))
	}}}
	for _, id := range core.MainExperiments {
		id := id
		writes = append(writes, write{"core.write " + id, func() error {
			return blank(core.WriteExperimentContext(ctx, &out, mainDS, id))
		}})
	}
	if fu != nil {
		for _, id := range core.FollowUpExperiments {
			id := id
			writes = append(writes, write{"core.write " + id, func() error {
				return blank(core.WriteExperimentContext(ctx, &out, fu, id))
			}})
		}
	}
	writes = append(writes,
		write{"core.write ablation", func() error {
			return blank(core.WriteAblationContext(ctx, &out, mainDS, 3))
		}},
		write{"core.write anonymity", func() error {
			return blank(core.WriteAnonymityContext(ctx, &out, mainDS))
		}})
	if o.evolution > 0 {
		writes = append(writes, write{"core.write evolution", func() error {
			return core.WriteEvolution(&out, core.MainStudySeed, o.evolution, min(o.iterations, 10))
		}})
	}
	for _, w := range writes {
		if err := step(w.name, w.fn); err != nil {
			return err
		}
	}
	studyS := time.Since(start).Seconds()
	rs := rt.end()
	sum := sha256.Sum256(out.Bytes())
	got := hex.EncodeToString(sum[:])
	r.t.ok()
	r.t.check(got == cfg.digest, "in-process study output digest %s, recorded %s", got, cfg.digest)

	ms := &metrics{}
	after := renderCounters()
	misses := after.misses - before.misses
	served := after.hits + after.waits - before.hits - before.waits
	renderS := after.renderS - before.renderS
	ms.set("vectors.render_s", renderS, "s")
	ms.set("vectors.cache_misses", float64(misses), "count")
	if misses > 0 {
		ms.set("vectors.render_us_per_miss", renderS*1e6/float64(misses), "us")
	}
	if served+misses > 0 {
		ms.set("vectors.cache_hit_ratio", float64(served)/float64(served+misses), "ratio")
	}
	var fig5, evo, other time.Duration
	for _, sp := range tr.snapshot() {
		switch {
		case sp.Name == "core.write "+core.ExpFigure5:
			fig5 += sp.dur()
		case sp.Name == "core.write evolution":
			evo += sp.dur()
		case strings.HasPrefix(sp.Name, "core.write "):
			other += sp.dur()
		}
	}
	ms.set("study.figure5_s", fig5.Seconds(), "s")
	if o.evolution > 0 {
		ms.set("study.evolution_s", evo.Seconds(), "s")
	}
	ms.set("study.other_analyses_s", other.Seconds(), "s")
	rs.set(ms)
	r.layers = ms
	r.e2e("setup_s", 0, "s")
	r.e2e("cpu_s", selfCPUSeconds()-cpu0, "s")
	r.e2e("peak_rss_mb", selfPeakRSSMB(), "MB")
	r.info("study_s", studyS, "s")
	return nil
}

// renderCounters reads the process-wide render telemetry.
type renderCount struct {
	hits, misses, waits int64
	renderS             float64
}

func renderCounters() renderCount {
	var c renderCount
	for _, s := range obs.Default.Snapshot() {
		switch s.Name {
		case "vectors_cache_hits_total":
			c.hits = int64(s.Value)
		case "vectors_cache_misses_total":
			c.misses = int64(s.Value)
		case "vectors_cache_singleflight_waits_total":
			c.waits = int64(s.Value)
		case "vectors_render_duration_seconds_sum":
			c.renderS += s.Value
		}
	}
	return c
}

// checkGolden reproduces internal/study's golden files from the 64-user
// golden configuration, formatted as its golden test formats them.
func checkGolden(t *tally, root string) {
	ds, err := study.Run(study.Config{Seed: 20210115, Users: 64, Iterations: 5, Parallelism: 4})
	if err != nil {
		t.fail("golden study: %v", err)
		return
	}
	var table2, fig5, ranking strings.Builder
	for _, row := range ds.Table2() {
		fmt.Fprintf(&table2, "%-12s users=%d distinct=%d unique=%d entropy=%.9f normalized=%.9f\n",
			row.Name, row.Users, row.Distinct, row.Unique, row.EntropyBits, row.Normalized)
	}
	m, err := ds.PairwiseVectorAMI()
	if err != nil {
		t.fail("golden AMI: %v", err)
		return
	}
	for _, row := range m {
		for j, v := range row {
			if j > 0 {
				fig5.WriteByte(' ')
			}
			fmt.Fprintf(&fig5, "%.9f", v)
		}
		fig5.WriteByte('\n')
	}
	res := ds.SubsetRanking(4)
	for i, rk := range res.Rankings {
		fmt.Fprintf(&ranking, "subset %d: %s\n", i, strings.Join(rk, " > "))
	}
	fmt.Fprintf(&ranking, "consistent: %v\n", res.Consistent)
	for name, got := range map[string]string{
		"table2_entropy": table2.String(), "figure5_ami": fig5.String(), "subset_ranking": ranking.String(),
	} {
		want, err := os.ReadFile(filepath.Join(root, "internal", "study", "testdata", "golden", name+".golden"))
		t.check(err == nil && string(want) == got, "golden %s differs (%v)", name, err)
	}
}
