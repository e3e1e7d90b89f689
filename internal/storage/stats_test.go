package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// naiveStats recounts Stats from a full record list with plain maps — the
// open-coded loop the stats index replaces, kept here as its oracle.
func naiveStats(recs []Record) (Stats, int64) {
	users := map[string]bool{}
	pairs := map[[2]string]bool{}
	st := Stats{Records: len(recs), Vectors: map[string]VectorStats{}}
	var maxSeq int64
	for _, r := range recs {
		users[r.UserID] = true
		v := st.Vectors[r.Vector]
		v.Records++
		if !pairs[[2]string{r.UserID, r.Vector}] {
			pairs[[2]string{r.UserID, r.Vector}] = true
			v.Users++
		}
		st.Vectors[r.Vector] = v
		maxSeq = max(maxSeq, r.Seq)
	}
	st.Users = len(users)
	return st, maxSeq
}

// checkIndex asserts the store's index (Count, Stats, MaxSeq) equals a
// recount of All().
func checkIndex(t *testing.T, s *Store, when string) {
	t.Helper()
	recs, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	want, wantSeq := naiveStats(recs)
	if s.Count() != len(recs) {
		t.Fatalf("%s: Count() = %d, All() has %d", when, s.Count(), len(recs))
	}
	if got := s.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Stats() = %+v, recount from All() = %+v", when, got, want)
	}
	if got := s.MaxSeq(); got != wantSeq {
		t.Fatalf("%s: MaxSeq() = %d, recount = %d", when, got, wantSeq)
	}
}

// randomRecords draws n records over a small user pool and vector names
// beyond the server's eleven (the store accepts any nonempty name).
func randomRecords(rng *rand.Rand, n int, seq *int64) []Record {
	vecs := []string{"DC", "FFT", "Custom Signal", "Canvas", "x-vector", "ÿ", "a\tb"}
	out := make([]Record, n)
	for i := range out {
		*seq += int64(1 + rng.Intn(3))
		out[i] = Record{
			SessionID: "s", UserID: fmt.Sprintf("u%d", rng.Intn(40)),
			Vector: vecs[rng.Intn(len(vecs))], Iteration: rng.Intn(30),
			Hash: fmt.Sprintf("%x", rng.Intn(8)), Seq: *seq,
		}
	}
	return out
}

func appendRaw(t *testing.T, path, data string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(data); err != nil {
		t.Fatal(err)
	}
}

// TestStatsIndexDifferential: the index Open builds and Append and Recover
// maintain equals a recount of All() through random appends, segment
// rotation, a corrupt line, a torn tail, Recover, and reopening.
func TestStatsIndexDifferential(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			path := filepath.Join(t.TempDir(), "fp.ndjson")
			opts := Options{MaxSegmentBytes: 1500}
			var seq int64
			s, err := Open(path, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkIndex(t, s, "empty")
			for i := 0; i < 40; i++ {
				if err := s.Append(randomRecords(rng, 1+rng.Intn(5), &seq)...); err != nil {
					t.Fatal(err)
				}
				checkIndex(t, s, fmt.Sprintf("append %d", i))
			}
			if len(s.Segments()) == 0 {
				t.Fatal("no segment sealed")
			}
			// A failed Append changes nothing.
			if err := s.Append(randomRecords(rng, 1, &seq)[0], Record{UserID: "u"}); err == nil {
				t.Fatal("invalid record accepted")
			}
			checkIndex(t, s, "failed append")
			s.Close()

			// A corrupt line, a valid one after it, then a torn tail:
			// Open skips the bad lines, Recover cuts at the first.
			late := []byte(`{"user_id":"late","vector":"late-vec","hash":"aa"}`)
			good := append(appendCRC(late, late), '\n')
			appendRaw(t, path, "{\"user_id\":\"ghost\"\n"+string(good)+`{"user_id":"torn","vec`)
			s, err = Open(path, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkIndex(t, s, "open with torn tail")
			if s.Stats().Vectors["late-vec"].Records != 1 {
				t.Fatal("Open should count the valid line after the corrupt one")
			}
			if _, err := s.Recover(); err != nil {
				t.Fatal(err)
			}
			checkIndex(t, s, "recover")
			if _, ok := s.Stats().Vectors["late-vec"]; ok {
				t.Fatal("Recover should drop everything after the first bad line")
			}
			for i := 0; i < 10; i++ {
				if err := s.Append(randomRecords(rng, 1+rng.Intn(5), &seq)...); err != nil {
					t.Fatal(err)
				}
			}
			checkIndex(t, s, "append after recover")
			s.Close()

			s, err = Open(path, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			checkIndex(t, s, "reopen")
		})
	}
}

// storeFiles returns the active file's and every sealed segment's bytes.
func storeFiles(t *testing.T, s *Store) [][]byte {
	t.Helper()
	var out [][]byte
	for _, p := range append(s.Segments(), s.Path()) {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, raw)
	}
	return out
}

// recoverBothPaths runs Recover on two stores opened over identical copies
// of setup's files — one as Open left it, one forced onto the slow path —
// and fails unless report, Count, Stats, MaxSeq and file bytes agree. It
// returns whether the first store took the fast path.
func recoverBothPaths(t *testing.T, setup func(path string), after func(s *Store)) (fast bool) {
	t.Helper()
	var stores [2]*Store
	for i := range stores {
		path := filepath.Join(t.TempDir(), "fp.ndjson")
		setup(path)
		s, err := Open(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		if after != nil {
			after(s)
		}
		stores[i] = s
	}
	fastS, slowS := stores[0], stores[1]
	fast = fastS.activeClean
	slowS.activeClean = false
	fastRep, err := fastS.Recover()
	if err != nil {
		t.Fatal(err)
	}
	slowRep, err := slowS.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if fastRep != slowRep {
		t.Errorf("report: fast %+v, slow %+v", fastRep, slowRep)
	}
	if fastS.Count() != slowS.Count() {
		t.Errorf("Count: fast %d, slow %d", fastS.Count(), slowS.Count())
	}
	if a, b := fastS.Stats(), slowS.Stats(); !reflect.DeepEqual(a, b) {
		t.Errorf("Stats: fast %+v, slow %+v", a, b)
	}
	if fastS.MaxSeq() != slowS.MaxSeq() {
		t.Errorf("MaxSeq: fast %d, slow %d", fastS.MaxSeq(), slowS.MaxSeq())
	}
	if a, b := storeFiles(t, fastS), storeFiles(t, slowS); !reflect.DeepEqual(a, b) {
		t.Errorf("files differ after Recover:\nfast %q\nslow %q", a, b)
	}
	return fast
}

// TestRecoverFastPathMatchesSlowPath: Recover's no-read fast path fires
// only where the full re-read would keep every byte, and then reports
// exactly what the re-read reports.
func TestRecoverFastPathMatchesSlowPath(t *testing.T) {
	line := func(user string) []byte {
		payload := fmt.Sprintf(`{"session_id":"s","user_id":%q,"vector":"DC","iteration":0,"hash":"aa","seq":7}`, user)
		return appendCRC([]byte(payload), []byte(payload))
	}
	file := func(parts ...[]byte) func(string) {
		return func(path string) {
			if err := os.WriteFile(path, bytes.Join(parts, nil), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	nl := []byte("\n")
	badCRC := line("u3")
	badCRC[5] ^= 0x20 // "session_id" → "seSsion_id": valid JSON, wrong sum
	legacy := []byte(`{"session_id":"s","user_id":"old","vector":"FFT","iteration":1,"hash":"bb"}`)
	sealed := func(path string) {
		// Two sealed segments (one with a corrupt line, which Open and
		// Recover both skip there) and a clean active file.
		file(line("s1"), nl, []byte("garbage\n"))(path + ".000001")
		file(line("s2"), nl)(path + ".000002")
		file(line("a1"), nl)(path)
	}
	cases := []struct {
		name     string
		setup    func(string)
		after    func(*Store)
		wantFast bool
	}{
		{"empty", file(), nil, true},
		{"clean", file(line("u1"), nl, line("u2"), nl), nil, true},
		{"torn tail", file(line("u1"), nl, line("u2")[:20]), nil, false},
		{"final line without newline", file(line("u1"), nl, line("u2")), nil, false},
		{"corrupt middle line", file(line("u1"), nl, []byte("{nope\n"), line("u2"), nl), nil, false},
		{"crc mismatch", file(line("u1"), nl, badCRC, nl, line("u2"), nl), nil, false},
		{"crlf line", file(line("u1"), []byte("\r\n"), line("u2"), nl), nil, false},
		{"legacy crlf line", file(legacy, []byte("\r\n"), line("u2"), nl), nil, false},
		{"empty line", file(line("u1"), nl, nl, line("u2"), nl), nil, false},
		{"legacy line without crc", file(legacy, nl, line("u1"), nl), nil, true},
		{"sealed segments", sealed, nil, true},
		{"append after open", file(line("u1"), nl), func(s *Store) {
			if err := s.Append(rec("u9", 0)); err != nil {
				t.Fatal(err)
			}
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if fast := recoverBothPaths(t, tc.setup, tc.after); fast != tc.wantFast {
				t.Errorf("fast path taken = %v, want %v", fast, tc.wantFast)
			}
		})
	}
}

// TestRecoverTwiceIsFast: a slow Recover leaves the active file clean, so
// the next Recover needs no re-read and reports the same salvage.
func TestRecoverTwiceIsFast(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fp.ndjson")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append(rec("u1", 0), rec("u2", 0)); err != nil {
		t.Fatal(err)
	}
	first, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !s.activeClean {
		t.Fatal("Recover left the store without the clean mark")
	}
	second, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Errorf("second Recover = %+v, first = %+v", second, first)
	}
}
