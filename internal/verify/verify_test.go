package verify

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/vectors"
)

func testEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := New(cfg)
	e.Enroll([]storage.Record{
		{UserID: "alice", Vector: "DC", Hash: "aa01"},
		{UserID: "alice", Vector: "DC", Hash: "aa02"}, // churned second hash
		{UserID: "alice", Vector: "FFT", Hash: "ff01"},
		{UserID: "bob", Vector: "DC", Hash: "bb01"},
		{UserID: "bob", Vector: "Canvas", Hash: "cc01"}, // aux surface: ignored
		{UserID: "", Vector: "DC", Hash: "dd01"},        // no user: ignored
	})
	return e
}

func TestVerifyDecisions(t *testing.T) {
	e := testEngine(t, Config{})
	if e.Users() != 2 {
		t.Fatalf("Users = %d, want 2 (aux/empty records ignored)", e.Users())
	}

	// Genuine: both vectors recognized.
	d, err := e.Verify("alice", []Sample{
		{Vector: vectors.DC, Hash: "aa01"},
		{Vector: vectors.FFT, Hash: "ff01"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Accept || d.Score != 1 {
		t.Errorf("genuine full match: accept=%v score=%v", d.Accept, d.Score)
	}
	if len(d.Vectors) != 2 || d.Vectors[0].Outcome != "unique" {
		t.Errorf("evidence = %+v", d.Vectors)
	}

	// Churned genuine: older DC hash still recognized via collated history.
	d, err = e.Verify("alice", []Sample{{Vector: vectors.DC, Hash: "aa02"}})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Accept || d.Score != 1 {
		t.Errorf("churned hash: accept=%v score=%v", d.Accept, d.Score)
	}

	// Impostor: bob's hashes under alice's name.
	d, err = e.Verify("alice", []Sample{
		{Vector: vectors.DC, Hash: "bb01"},
		{Vector: vectors.FFT, Hash: "nope"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Accept || d.Score != 0 {
		t.Errorf("impostor: accept=%v score=%v", d.Accept, d.Score)
	}
	for _, ve := range d.Vectors {
		if ve.Outcome != "none" {
			t.Errorf("impostor evidence outcome = %q, want none", ve.Outcome)
		}
	}

	// Partial: one of two DC hashes known → score 0.5, rejected at the
	// calibrated default threshold.
	d, err = e.Verify("alice", []Sample{
		{Vector: vectors.DC, Hash: "aa01"},
		{Vector: vectors.DC, Hash: "unknown"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Score != 0.5 || d.Accept {
		t.Errorf("partial: score=%v accept=%v, want 0.5/reject", d.Score, d.Accept)
	}

	// Vector without history stays out of the score.
	d, err = e.Verify("alice", []Sample{
		{Vector: vectors.DC, Hash: "aa01"},
		{Vector: vectors.AM, Hash: "9999"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Score != 1 {
		t.Errorf("no-history vector dragged score to %v", d.Score)
	}
	var am *VectorEvidence
	for i := range d.Vectors {
		if d.Vectors[i].Vector == "AM" {
			am = &d.Vectors[i]
		}
	}
	if am == nil || am.Outcome != "no_history" {
		t.Errorf("AM evidence = %+v, want no_history", am)
	}

	// Unknown user.
	if _, err := e.Verify("mallory", []Sample{{Vector: vectors.DC, Hash: "aa01"}}); !errors.Is(err, ErrUnknownUser) {
		t.Errorf("unknown user error = %v", err)
	}

	st := e.Stats()
	if st.Accepted != 3 || st.Rejected != 2 || st.UnknownUsers != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Threshold != DefaultThreshold {
		t.Errorf("threshold = %v", st.Threshold)
	}
}

func TestVerifyThresholdFromCalibration(t *testing.T) {
	cal := &Calibration{EER: 0.1, EERThreshold: 0.62}
	e := New(Config{Calibration: cal})
	if e.Threshold() != 0.62 {
		t.Errorf("threshold = %v, want calibration's 0.62", e.Threshold())
	}
	if e.Stats().Calibration != cal {
		t.Error("stats does not carry the calibration")
	}
	if th := New(Config{Threshold: 0.8, Calibration: cal}).Threshold(); th != 0.8 {
		t.Errorf("explicit threshold overridden: %v", th)
	}
}

func TestVerifyMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	e := testEngine(t, Config{Registry: reg, MetricLabels: obs.Labels{"shard": "0"}})
	_, _ = e.Verify("alice", []Sample{{Vector: vectors.DC, Hash: "aa01"}})
	_, _ = e.Verify("alice", []Sample{{Vector: vectors.DC, Hash: "zz"}})
	_, _ = e.Verify("nobody", nil)
	var buf strings.Builder
	if _, err := reg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`verify_decisions_total{decision="accept",shard="0"} 1`,
		`verify_decisions_total{decision="reject",shard="0"} 1`,
		`verify_decisions_total{decision="unknown_user",shard="0"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

func TestCalibrate(t *testing.T) {
	// Perfectly separable scores: EER must be 0 at some threshold between
	// the populations.
	var trials []Trial
	for i := 0; i < 50; i++ {
		trials = append(trials, Trial{Score: 0.9, Genuine: true}, Trial{Score: 0.1, Genuine: false})
	}
	cal := Calibrate(trials, 100)
	if cal.EER != 0 {
		t.Errorf("separable EER = %v, want 0", cal.EER)
	}
	if cal.EERThreshold <= 0.1 || cal.EERThreshold > 0.9 {
		t.Errorf("EER threshold = %v, want in (0.1, 0.9]", cal.EERThreshold)
	}
	if cal.GenuineTrials != 50 || cal.ImpostorTrials != 50 {
		t.Errorf("trial counts = %d/%d", cal.GenuineTrials, cal.ImpostorTrials)
	}
	if len(cal.Points) != 101 {
		t.Errorf("points = %d, want 101", len(cal.Points))
	}
	// Fully overlapping scores: FAR+FRR always sums to 1 at the crossing,
	// EER = 0.5.
	trials = trials[:0]
	for i := 0; i < 50; i++ {
		trials = append(trials, Trial{Score: 0.5, Genuine: true}, Trial{Score: 0.5, Genuine: false})
	}
	if cal := Calibrate(trials, 100); cal.EER != 0.5 {
		t.Errorf("overlapping EER = %v, want 0.5", cal.EER)
	}
}

// TestVerifyConcurrentScore: concurrent decisions for one user read the
// user's history under a shared lock, so Match must not write to it.
// Under -race a path-compressing lookup shows up as a data race. The
// readers call Score, the shared-lock half of Verify: Verify's counter
// update takes the exclusive lock, which on one P orders the readers and
// hides the race.
func TestVerifyConcurrentScore(t *testing.T) {
	e := New(Config{})
	var recs []storage.Record
	for i := 0; i < 12; i++ {
		recs = append(recs, storage.Record{UserID: "u1", Vector: "DC", Hash: fmt.Sprintf("dc%02d", i)})
	}
	e.Enroll(recs)
	samples := []Sample{{Vector: vectors.DC, Hash: "dc00"}, {Vector: vectors.DC, Hash: "dc07"}}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if score, _, known := e.Score("u1", samples); !known || score != 1 {
					t.Errorf("Score(u1) = %v, known=%v; want 1, true", score, known)
					return
				}
			}
		}()
	}
	wg.Wait()
}
