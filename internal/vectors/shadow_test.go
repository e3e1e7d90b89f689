package vectors

import (
	"encoding/json"
	"net/http/httptest"
	"testing"

	"repro/internal/obs"
	"repro/internal/webaudio"
)

func testAuditor(t *testing.T, every int) *ShadowAuditor {
	t.Helper()
	return NewShadowAuditor(ShadowConfig{
		Every:    every,
		RingSize: 8,
		Registry: obs.NewRegistry(),
	})
}

func TestShadowAuditCleanEnginesAgree(t *testing.T) {
	a := testAuditor(t, 1)
	r := NewRunner(webaudio.DefaultTraits(), 44100)
	for _, id := range []ID{DC, FFT, Hybrid} {
		if rec := a.Audit("stack-a", r, id, 0); rec != nil {
			t.Fatalf("%v: healthy engines diverged: %+v", id, rec.Divergence)
		}
	}
	s := a.Summary()
	if s.Checks != 3 || s.Divergences != 0 || s.Errors != 0 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestShadowAuditCatchesBrokenKernel(t *testing.T) {
	webaudio.SetBlockFault("compressor", 42, 1<<18)
	defer webaudio.SetBlockFault("", 0, 0)

	a := testAuditor(t, 1)
	r := NewRunner(webaudio.DefaultTraits(), 44100)
	rec := a.Audit("stack-broken", r, DC, 0)
	if rec == nil {
		t.Fatal("broken compressor kernel not caught")
	}
	d := rec.Divergence
	if d.Op != "compressor" {
		t.Fatalf("offending op = %q, want compressor", d.Op)
	}
	if d.Sample != 42 {
		t.Fatalf("sample = %d, want 42", d.Sample)
	}
	if rec.Vector != "DC" || rec.StackKey != "stack-broken" {
		t.Fatalf("record = %+v", rec)
	}

	s := a.Summary()
	if s.Divergences != 1 {
		t.Fatalf("divergences = %d", s.Divergences)
	}
	if len(s.Records) != 1 {
		t.Fatalf("records = %d", len(s.Records))
	}

	// The per-kernel first-offset histogram sees the absolute frame offset.
	h := a.reg.Histogram("vectors_divergence_first_offset_frames", "",
		divergenceOffsetBuckets(), obs.Labels{"op": "compressor"})
	if h.Count() != 1 {
		t.Fatalf("offset histogram count = %d", h.Count())
	}
}

func TestShadowRingBoundsRecords(t *testing.T) {
	webaudio.SetBlockFault("compressor", 0, 1<<16)
	defer webaudio.SetBlockFault("", 0, 0)
	a := testAuditor(t, 1)
	r := NewRunner(webaudio.DefaultTraits(), 44100)
	for i := 0; i < 12; i++ {
		a.Audit("s", r, DC, i)
	}
	recs := a.Records()
	if len(recs) != 8 {
		t.Fatalf("ring retained %d records, want 8", len(recs))
	}
	// Oldest-first: the first retained audit is offset 4 of 0..11.
	if recs[0].Offset != 4 || recs[7].Offset != 11 {
		t.Fatalf("ring order: first=%d last=%d", recs[0].Offset, recs[7].Offset)
	}
}

func TestSampledIsDeterministicAndCoversKeys(t *testing.T) {
	a := testAuditor(t, 4)
	var sampled int
	for i := 0; i < 256; i++ {
		key := string(rune('a'+i%26)) + string(rune('0'+i/26))
		s1 := a.Sampled(key, FFT, i)
		s2 := a.Sampled(key, FFT, i)
		if s1 != s2 {
			t.Fatal("sampling decision not deterministic")
		}
		if s1 {
			sampled++
		}
	}
	// 1-in-4 hashing over 256 keys: expect roughly 64, allow wide slack.
	if sampled < 16 || sampled > 160 {
		t.Fatalf("sampled %d of 256 keys at 1-in-4", sampled)
	}
	if !testAuditor(t, 1).Sampled("anything", DC, 0) {
		t.Fatal("Every=1 must sample everything")
	}
}

func TestCacheShadowHookAuditsMissPath(t *testing.T) {
	a := testAuditor(t, 1)
	c := NewCache()
	c.SetShadow(a)
	if c.Shadow() != a {
		t.Fatal("Shadow() accessor broken")
	}
	r := NewRunner(webaudio.DefaultTraits(), 44100)

	if _, err := c.Run("stack-a", r, DC, 0); err != nil {
		t.Fatal(err)
	}
	if got := a.Summary().Checks; got != 1 {
		t.Fatalf("miss-path audits = %d, want 1", got)
	}
	// A cache hit must not re-audit.
	if _, err := c.Run("stack-a", r, DC, 0); err != nil {
		t.Fatal(err)
	}
	if got := a.Summary().Checks; got != 1 {
		t.Fatalf("hit-path triggered audit: checks = %d", got)
	}
}

func TestShadowHandlerServesSummary(t *testing.T) {
	webaudio.SetBlockFault("gain", 3, 1<<15)
	defer webaudio.SetBlockFault("", 0, 0)
	a := testAuditor(t, 1)
	r := NewRunner(webaudio.DefaultTraits(), 44100)
	a.Audit("stack-x", r, FFT, 2)

	srv := httptest.NewServer(a.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var s ShadowSummary
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if s.Divergences != 1 || len(s.Records) != 1 {
		t.Fatalf("summary over HTTP = %+v", s)
	}
	rec := s.Records[0]
	if rec.Divergence.Op != "gain" || rec.Vector != "FFT" || rec.Offset != 2 {
		t.Fatalf("record = %+v", rec)
	}
}

// TestCacheShadowAuditsEveryKeyOfAPass: with every key sampled (-shadow 1),
// a render pass that fills several offsets audits each key it rendered —
// one lockstep check per rendered key, none on later hits.
func TestCacheShadowAuditsEveryKeyOfAPass(t *testing.T) {
	a := testAuditor(t, 1)
	c := NewCache()
	c.SetShadow(a)
	r := NewRunner(webaudio.DefaultTraits(), 44100)
	group := []int{0, 2, 5}
	for _, off := range group {
		if _, err := c.RunGroup("stack-a", r, FFT, off, group); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Passes != 1 {
		t.Fatalf("passes = %d, want 1", st.Passes)
	}
	s := a.Summary()
	if s.Checks != st.Misses || s.Checks != int64(len(group)) {
		t.Fatalf("audits = %d, rendered keys = %d, want %d each", s.Checks, st.Misses, len(group))
	}
	if s.Divergences != 0 || s.Errors != 0 {
		t.Fatalf("summary = %+v", s)
	}
}
