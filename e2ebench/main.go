// Command e2ebench is the repository benchmark. It drives the binaries
// people run — fpserver -analytics -verify and fpstudy — built from the
// checkout, on three workloads:
//
//	ingest    the paper-scale population replayed into an empty store
//	read_mix  open-loop verify and analytics reads on a restarted server
//	study     fpstudy at its paper-scale defaults
//
// With -trace 1 it runs the workload once untraced and once traced, the
// traced run composing the same packages in-process with timing
// decorators on every layer interface, and reports per-layer metrics.
// Every metric is printed as "metric <name> <value> <unit>"; the last
// stdout line is the JSON result. Run it through run.sh, which builds
// everything first.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// env is one benchmark invocation's settings.
type env struct {
	root, bin, tmp string
	flags          serverFlags
	seed           int64
	seconds        float64
	nproc          int
	start          time.Time
}

// logf reports progress on standard error, stamped with the time since
// the run began.
func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench %6.1fs: %s\n", time.Since(e.start).Seconds(), fmt.Sprintf(format, args...))
}

// configs sizes every workload; main uses the paper-scale ones, the tests
// tiny ones.
type configs struct {
	ingest  ingestConfig
	readMix readMixConfig
	study   studyConfig
}

var paper = configs{ingest: paperIngest, readMix: paperReadMix, study: paperStudy}

func main() {
	if err := run(os.Args[1:], os.Stdout, paper); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer, cfgs configs) error {
	fl := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	workload := fl.String("workload", "", "ingest, read_mix or study")
	seed := fl.Int64("seed", 1, "input seed")
	seconds := fl.Int("seconds", 10, "measured seconds per run")
	trace := fl.Int("trace", 0, "1: traced run reporting per-layer metrics")
	srvFlags := fl.String("fpserver-flags", "-analytics -verify", "flags fpserver runs with")
	root := fl.String("root", ".", "repository root")
	bin := fl.String("bin", "", "directory holding the built fpserver and fpstudy")
	tmp := fl.String("tmp", "", "scratch directory")
	if err := fl.Parse(args); err != nil {
		return err
	}
	sf, err := parseServerFlags(*srvFlags)
	if err != nil {
		return err
	}
	if *bin == "" || *tmp == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -bin, -tmp, -seconds ≥ 1 and -trace 0|1")
	}
	e := &env{root: *root, bin: *bin, tmp: *tmp, flags: sf, seed: *seed,
		seconds: float64(*seconds), nproc: runtime.NumCPU(), start: time.Now()}

	st := stamp(e.root)
	st["workload"], st["seed"], st["trace"], st["fpserver_flags"] = *workload, *seed, *trace, *srvFlags
	b, _ := json.Marshal(st)
	fmt.Fprintf(stdout, "stamp %s\n", b)

	if *trace == 0 {
		r, err := e.run(*workload, nil, cfgs)
		if err != nil {
			return err
		}
		r.print(stdout, "")
		return writeResult(stdout, r.t, &r.e2es)
	}

	// Untraced, then traced: the gap is the tracing overhead. The
	// untraced pass times one start-up only.
	quick := cfgs
	quick.ingest.setups, quick.readMix.setups, quick.study.setups = 1, 1, 1
	base, err := e.run(*workload, nil, quick)
	if err != nil {
		return err
	}
	tr := newTracer()
	r, err := e.run(*workload, tr, quick)
	if err != nil {
		return err
	}
	// The tracing overhead is the traced over the untraced headline time.
	headline := map[string]string{"ingest": "submit_p50_ms", "read_mix": "verify_p50_ms", "study": "study_s"}[*workload]
	if a, _ := base.infos.get(headline); a > 0 {
		b, _ := r.infos.get(headline)
		r.layers.set("trace.overhead", b/a, "ratio")
	}
	layers, missing := complete(r.layers)
	base.print(stdout, "untraced.")
	r.print(stdout, "traced.")
	layers.print(stdout, "")
	path := filepath.Join(filepath.Dir(e.tmp), fmt.Sprintf("trace-%s-%d.ndjson", *workload, *seed))
	if err := tr.writeFile(path); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "spans %s\n", path)
	fmt.Fprintf(stdout, "unmeasured %s\n", strings.Join(missing, " "))
	both := &tally{attempted: base.t.attempted + r.t.attempted, failed: base.t.failed + r.t.failed}
	return writeResult(stdout, both, layers)
}

func (e *env) run(workload string, tr *tracer, cfgs configs) (*report, error) {
	var r *report
	var err error
	switch workload {
	case "ingest":
		r, err = e.runIngest(cfgs.ingest, tr)
	case "read_mix":
		r, err = e.runReadMix(cfgs.readMix, tr)
	case "study":
		r, err = e.runStudy(cfgs.study, tr)
	default:
		return nil, fmt.Errorf("unknown workload %q (want ingest, read_mix or study)", workload)
	}
	if err != nil {
		return nil, err
	}
	if r.layers == nil && tr != nil {
		r.layers = &metrics{}
	}
	for _, msg := range r.t.firstErrs {
		fmt.Fprintln(os.Stderr, "e2ebench: failed:", msg)
	}
	return r, nil
}

// stamp describes the code and machine a result came from.
func stamp(root string) map[string]any {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"commit":        commit,
		"source_sha256": sourceDigest(root),
		"go":            runtime.Version(),
		"cpu":           cpuModel(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
	}
}

// sourceDigest hashes the repository's Go sources and module files, so a
// result from a checkout without git history still names its code.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
