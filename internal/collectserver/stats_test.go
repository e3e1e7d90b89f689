package collectserver

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/storage"
)

// hideStats wraps a store so only RecordStore's methods show: the shape of
// a decorator that does not forward StatsStore.
type hideStats struct{ RecordStore }

// scanStats is the full-scan counting /api/v1/stats did before stores kept
// an index, kept as the oracle for the response bytes.
func scanStats(recs []storage.Record, filter string) StatsResponse {
	perVector := map[string]int{}
	users := map[string]struct{}{}
	for _, rec := range recs {
		if filter != "" && rec.Vector != filter {
			continue
		}
		perVector[rec.Vector]++
		users[rec.UserID] = struct{}{}
	}
	total := 0
	for _, n := range perVector {
		total += n
	}
	return StatsResponse{Records: total, Users: len(users), PerVector: perVector, Vector: filter}
}

// TestStatsIndexMatchesScan: /api/v1/stats answers byte-identically from
// the store's index, from the All() fallback a decorated store gets, and
// from the full-scan counting both replace — for every filter shape,
// including a known vector with no records (200, zeros) and an unknown one
// (400 bad_request).
func TestStatsIndexMatchesScan(t *testing.T) {
	st, err := storage.Open(filepath.Join(t.TempDir(), "fp.ndjson"), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var recs []storage.Record
	vecs := []string{"DC", "FFT", "Custom Signal", "Canvas", "stored-only"}
	for i := 0; i < 60; i++ {
		recs = append(recs, storage.Record{
			UserID: fmt.Sprintf("u%d", i%13), Vector: vecs[i%len(vecs)],
			Iteration: i % 4, Hash: fmt.Sprintf("%x", i%5),
		})
	}
	if err := st.Append(recs...); err != nil {
		t.Fatal(err)
	}
	if _, ok := RecordStore(hideStats{st}).(StatsStore); ok {
		t.Fatal("hideStats still exposes StatsStore")
	}
	serve := func(store RecordStore, query string) *httptest.ResponseRecorder {
		srv, err := New(Config{Store: store, Registry: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		rw := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/api/v1/stats"+query, nil))
		return rw
	}
	for _, q := range []struct{ query, filter string }{
		{"", ""},
		{"?vector=FFT", "FFT"},
		{"?vector=Custom%20Signal", "Custom Signal"},
		{"?vector=Canvas", "Canvas"},
		{"?vector=stored-only", "stored-only"},
		{"?vector=AM", "AM"},
		{"?vector=Telepathy", "Telepathy"},
	} {
		idx, fb := serve(st, q.query), serve(hideStats{st}, q.query)
		if idx.Code != fb.Code || !bytes.Equal(idx.Body.Bytes(), fb.Body.Bytes()) {
			t.Errorf("%q: index path %d %s, All() fallback %d %s", q.query, idx.Code, idx.Body, fb.Code, fb.Body)
		}
		oracle := httptest.NewRecorder()
		if want := scanStats(recs, q.filter); q.filter != "" && want.Records == 0 && !knownVectorName(q.filter) {
			respondError(oracle, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("unknown vector %q", q.filter))
		} else {
			respondJSON(oracle, http.StatusOK, want)
		}
		if idx.Code != oracle.Code || !bytes.Equal(idx.Body.Bytes(), oracle.Body.Bytes()) {
			t.Errorf("%q: index path %d %s, full scan %d %s", q.query, idx.Code, idx.Body, oracle.Code, oracle.Body)
		}
	}
}
