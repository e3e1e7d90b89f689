package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// pollPeriod is how often the polling connection reads
// /api/v1/analytics/status while visibility lag is measured. It is a
// constant so both sides of every comparison poll alike.
const pollPeriod = 2 * time.Millisecond

// tally counts operations attempted and failed. Failed covers transport
// errors, refused requests (429/503) and wrong outputs.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	shed      int
	firstErrs []string
}

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.failed++
	if len(t.firstErrs) < 10 {
		t.firstErrs = append(t.firstErrs, fmt.Sprintf(format, args...))
	}
}

// check records one output check.
func (t *tally) check(good bool, format string, args ...any) {
	if good {
		t.ok()
	} else {
		t.fail(format, args...)
	}
}

// expect reports whether a request got wantStatus, counting it as failed
// otherwise (429/503 also as shed). The caller counts a success with ok
// once it has checked the response body too.
func (t *tally) expect(what string, status int, err error, wantStatus int) bool {
	switch {
	case err != nil:
		t.fail("%s: %v", what, err)
	case status == wantStatus:
		return true
	default:
		if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
			t.mu.Lock()
			t.shed++
			t.mu.Unlock()
		}
		t.fail("%s: HTTP %d", what, status)
	}
	return false
}

// data decodes the v1 envelope's data member into dst.
func data(body []byte, dst any) error {
	var env struct {
		Data json.RawMessage `json:"data"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return err
	}
	if len(env.Data) == 0 {
		return fmt.Errorf("no data in %q", body)
	}
	return json.Unmarshal(env.Data, dst)
}

// pacer runs operations on one connection in order, each no earlier than
// its due time. An operation's latency starts at its due time when the
// connection was still busy then, so a stall also charges the requests
// queued behind it. When the connection was idle, any delay past the due
// time is the sender's own timer slack: latency starts at the actual send
// and the slack is recorded as lateness instead.
type pacer struct {
	late     []float64 // ms
	prevDone time.Time
}

// wait sleeps until due and returns the time the operation's latency
// starts from.
func (p *pacer) wait(due time.Time) time.Time {
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	if p.prevDone.After(due) {
		return due
	}
	sent := time.Now()
	p.late = append(p.late, ms(sent.Sub(due)))
	return sent
}

// done marks the end of the operation wait started.
func (p *pacer) done() { p.prevDone = time.Now() }

// ackLog records acknowledged submissions and measures when the
// analytics plane shows them: the lag of an ack is the time from its 202
// until a /api/v1/analytics/status poll answers records ≥ the records
// acknowledged up to and including it.
type ackLog struct {
	mu    sync.Mutex
	at    []time.Time
	cum   []int64
	total int64
	lags  []float64 // ms
	seen  int       // acks already observed visible
}

func (a *ackLog) ack(n int) {
	a.mu.Lock()
	a.total += int64(n)
	a.at = append(a.at, time.Now())
	a.cum = append(a.cum, a.total)
	a.mu.Unlock()
}

func (a *ackLog) acked() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total
}

// observe marks every ack covered by visible records as seen at t.
func (a *ackLog) observe(visible int64, t time.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for a.seen < len(a.cum) && a.cum[a.seen] <= visible {
		a.lags = append(a.lags, ms(t.Sub(a.at[a.seen])))
		a.seen++
	}
}

func (a *ackLog) allSeen() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.seen == len(a.cum)
}

// statusRecords reads /api/v1/analytics/status's record count.
func statusRecords(c *http.Client, base string) (int64, error) {
	code, body, err := call(c, "GET", base+"/api/v1/analytics/status", nil)
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("status: HTTP %d", code)
	}
	var st struct {
		Records int64 `json:"records"`
	}
	err = data(body, &st)
	return st.Records, err
}

// poller polls status every pollPeriod until stop is closed and then
// until every ack is visible (or the grace period runs out).
func poller(c *http.Client, base string, acks *ackLog, stop <-chan struct{}, t *tally) {
	grace := time.Time{}
	for {
		n, err := statusRecords(c, base)
		now := time.Now()
		if err != nil {
			t.fail("poll: %v", err)
		} else {
			acks.observe(n, now)
		}
		select {
		case <-stop:
			if grace.IsZero() {
				grace = now.Add(60 * time.Second)
			}
			if acks.allSeen() {
				return
			}
			if now.After(grace) {
				t.fail("analytics never showed %d acknowledged records", acks.acked())
				return
			}
		default:
		}
		time.Sleep(pollPeriod)
	}
}

// session opens a collection session and returns its token.
func session(c *http.Client, base string, p *participant, t *tally) (string, bool) {
	code, body, err := call(c, "POST", base+"/api/v1/sessions", p.session)
	if !t.expect("session "+p.user, code, err, http.StatusCreated) {
		return "", false
	}
	var resp struct {
		Token string `json:"token"`
	}
	if err := data(body, &resp); err != nil || resp.Token == "" {
		t.fail("session %s: bad response %q", p.user, body)
		return "", false
	}
	t.ok()
	return resp.Token, true
}

// submit sends chunk i of p's records and checks the acknowledgement.
func submit(c *http.Client, base, token string, p *participant, i int, t *tally) bool {
	body := submitBody(token, p.chunks[i], p.user+"/"+strconv.Itoa(i))
	code, resp, err := call(c, "POST", base+"/api/v1/fingerprints", body)
	if !t.expect("submit "+p.user, code, err, http.StatusAccepted) {
		return false
	}
	var ack struct {
		Accepted int `json:"accepted"`
	}
	if err := data(resp, &ack); err != nil || ack.Accepted != p.counts[i] {
		t.fail("submit %s chunk %d: accepted %d of %d", p.user, i, ack.Accepted, p.counts[i])
		return false
	}
	t.ok()
	return true
}
