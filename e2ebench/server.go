package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/collectserver"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/streaming"
	"repro/internal/verify"
)

// serverFlags are the fpserver flags the benchmark runs with. BENCHMARK.json
// records them in its command line; the traced in-process composition
// reads the same values so both sides of a comparison match.
type serverFlags struct {
	raw         []string
	sync        bool
	rate        float64
	sessionRate float64
	maxInflight int
}

func parseServerFlags(s string) (serverFlags, error) {
	f := serverFlags{raw: strings.Fields(s)}
	fs := flag.NewFlagSet("fpserver", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	analytics := fs.Bool("analytics", false, "")
	verifyOn := fs.Bool("verify", false, "")
	fs.BoolVar(&f.sync, "sync", false, "")
	fs.Float64Var(&f.rate, "rate", 50, "")
	fs.Float64Var(&f.sessionRate, "session-rate", 600, "")
	fs.IntVar(&f.maxInflight, "max-inflight", 256, "")
	if err := fs.Parse(f.raw); err != nil {
		return f, fmt.Errorf("-fpserver-flags: %w", err)
	}
	if !*analytics || !*verifyOn || fs.NArg() > 0 {
		return f, fmt.Errorf("-fpserver-flags must enable -analytics and -verify and take no arguments: %q", s)
	}
	return f, nil
}

// target is a running collection server under test.
type target interface {
	URL() string
	// CPUSeconds is the CPU time the server has used so far.
	CPUSeconds() float64
	// Stop shuts the server down, waits for it, and returns its peak
	// resident set size in MB.
	Stop() (peakRSSMB float64, err error)
}

// procServer is fpserver as people run it: a child process.
type procServer struct {
	cmd  *exec.Cmd
	url  string
	done chan error
	tail *tailBuffer
}

// startProc launches fpserver on store and returns once /healthz answers,
// with the time that took.
func startProc(bin string, f serverFlags, store string) (*procServer, time.Duration, error) {
	args := append(append([]string(nil), f.raw...), "-addr", "127.0.0.1:0", "-store", store)
	start := time.Now()
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = childAttr()
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	p := &procServer{cmd: cmd, done: make(chan error, 1), tail: &tailBuffer{}}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64*1024), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case addr <- strings.TrimSpace(line[i+len("listening on "):]):
				default:
				}
			}
			p.tail.add(line)
		}
		_, _ = io.Copy(io.Discard, stderr)
		p.done <- cmd.Wait()
	}()
	select {
	case a := <-addr:
		p.url = "http://" + a
	case err := <-p.done:
		return nil, 0, fmt.Errorf("fpserver exited before listening: %v\n%s", err, p.tail)
	case <-time.After(120 * time.Second):
		p.kill()
		return nil, 0, fmt.Errorf("fpserver did not listen within 120s\n%s", p.tail)
	}
	if err := waitHealthy(p.url); err != nil {
		p.kill()
		return nil, 0, err
	}
	return p, time.Since(start), nil
}

func (p *procServer) URL() string { return p.url }

// CPUSeconds reads the child's user and system time from /proc.
func (p *procServer) CPUSeconds() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesized command name; utime and stime are
	// the 14th and 15th fields of the whole line, in clock ticks.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / clockTicks
}

// clockTicks is USER_HZ, the unit of /proc CPU times on Linux.
const clockTicks = 100

func (p *procServer) kill() {
	_ = p.cmd.Process.Kill()
	<-p.done
}

func (p *procServer) Stop() (float64, error) {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	var err error
	select {
	case err = <-p.done:
	case <-time.After(30 * time.Second):
		_ = p.cmd.Process.Kill()
		err = <-p.done
		if err == nil {
			err = errors.New("fpserver ignored SIGTERM")
		}
	}
	if err != nil {
		err = fmt.Errorf("fpserver: %v\n%s", err, p.tail)
	}
	return maxRSSMB(p.cmd.ProcessState), err
}

// childAttr makes a child process die with the benchmark, so no server
// outlives a crashed run.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// maxRSSMB is a reaped child's peak resident set size.
func maxRSSMB(ps interface{ SysUsage() any }) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

func waitHealthy(url string) error {
	c := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := c.Get(url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/healthz not ready: %v", url, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// tailBuffer keeps the last lines a child process logged, for errors.
type tailBuffer struct {
	mu    sync.Mutex
	lines []string
}

func (t *tailBuffer) add(line string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.lines) == 20 {
		t.lines = t.lines[1:]
	}
	t.lines = append(t.lines, line)
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, "\n")
}

// inprocServer composes the packages the way cmd/fpserver does at
// -shards 1, with every layer interface behind a tracing decorator and the
// engine metrics on a registry of its own.
type inprocServer struct {
	reg *obs.Registry
	st  *storage.Store
	eng *streaming.Engine
	hs  *http.Server
	url string
	srv chan error
}

func startInproc(tr *tracer, f serverFlags, store string) (*inprocServer, time.Duration, error) {
	start := time.Now()
	s := &inprocServer{reg: obs.NewRegistry(), srv: make(chan error, 1)}
	done := tr.begin("storage.open")
	st, err := storage.Open(store, storage.Options{SyncEveryAppend: f.sync})
	done(0)
	if err != nil {
		return nil, 0, err
	}
	s.st = st
	done = tr.begin("storage.recover")
	_, err = st.Recover()
	done(0)
	if err != nil {
		st.Close()
		return nil, 0, err
	}
	rs := tracedStore{t: tr, inner: st}
	recs, err := rs.All()
	if err != nil {
		st.Close()
		return nil, 0, err
	}
	s.eng = streaming.New(streaming.Config{Registry: s.reg})
	done = tr.begin("streaming.bootstrap")
	s.eng.Bootstrap(recs)
	done(len(recs))
	recs, err = rs.All()
	if err != nil {
		s.eng.Close()
		st.Close()
		return nil, 0, err
	}
	ver := tracedVerifier{t: tr, inner: verify.New(verify.Config{Registry: s.reg})}
	ver.Enroll(recs)
	recs = nil
	srv, err := collectserver.New(collectserver.Config{
		Store:             rs,
		MaxBatch:          256,
		Logger:            log.New(io.Discard, "fpserver ", log.LstdFlags|log.Lmsgprefix),
		SessionRatePerMin: f.sessionRate,
		MaxInFlight:       f.maxInflight,
		SubmitRatePerSec:  f.rate,
		Registry:          s.reg,
		Analytics:         tracedAnalytics{t: tr, inner: s.eng},
		Verifier:          ver,
	})
	if err != nil {
		s.eng.Close()
		st.Close()
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.eng.Close()
		st.Close()
		return nil, 0, err
	}
	s.url = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: tracedHandler(tr, srv.Handler()), ReadHeaderTimeout: 10 * time.Second}
	go func() { s.srv <- s.hs.Serve(ln) }()
	if err := waitHealthy(s.url); err != nil {
		s.Stop()
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

func (s *inprocServer) URL() string { return s.url }

// CPUSeconds is the whole benchmark process's CPU time: the traced
// composition shares it with the load generator.
func (s *inprocServer) CPUSeconds() float64 { return selfCPUSeconds() }

func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// Stop shuts the listener down and closes the engine — the barrier after
// which every applied batch's side effects (observer, AMI refresh) have
// run — then the store.
func (s *inprocServer) Stop() (float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.srv; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.eng.Close()
	if cerr := s.st.Close(); err == nil {
		err = cerr
	}
	return selfPeakRSSMB(), err
}

// engineCounter and engineHist read the engine's own streaming_* metrics.
func (s *inprocServer) engineCounter(name string) int64 {
	return s.reg.Counter(name, "", nil).Value()
}

func (s *inprocServer) engineHistSum(name string) float64 {
	return s.reg.Histogram(name, "", obs.LatencyBuckets(), nil).Sum()
}

// selfPeakRSSMB is this process's VmHWM.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// httpConn is one client connection: a transport capped at a single
// connection, so the benchmark's connection count is what it says.
func httpConn() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   120 * time.Second,
	}
}

// call issues one request and returns the status and body.
func call(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}
