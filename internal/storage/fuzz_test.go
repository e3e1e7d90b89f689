package storage

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzStoreScan feeds arbitrary bytes as a store file: Open must never
// panic, must count only valid records, and its index (Count, Stats,
// MaxSeq) must equal a recount of All(). Recover must then agree with its
// slow path — same report, index and file bytes — whether or not Open's
// scan let it skip the re-read.
func FuzzStoreScan(f *testing.F) {
	valid := []byte(`{"session_id":"s","user_id":"u","vector":"DC","iteration":0,"hash":"aa","received_at":"2021-03-01T00:00:00Z"}`)
	f.Add(valid)
	f.Add([]byte("not json at all\n{{{{"))
	f.Add([]byte("{\"user_id\":\"u\"}\n\x00\x01\x02"))
	f.Add([]byte(""))

	// CRC-framed lines: intact, corrupted payload, torn mid-line, torn
	// mid-tag, and a malformed tag — the fault classes Recover must absorb.
	crcLine := append(appendCRC(nil, valid), '\n')
	f.Add(crcLine)
	flipped := append([]byte(nil), crcLine...)
	flipped[len(flipped)/2] ^= 0x20
	f.Add(flipped)
	f.Add(append(append([]byte(nil), crcLine...), crcLine[:len(crcLine)/2]...))
	f.Add(crcLine[:len(crcLine)-5])
	f.Add(append(append([]byte(nil), valid...), []byte("\t#czzzzzzzz\n")...))

	// Where Open's line rules and Recover's differ: a CRLF-terminated CRC
	// line, a CRLF legacy line, and a valid final line with no newline.
	framed := append(appendCRC(append([]byte(nil), valid...), valid), '\n')
	f.Add(framed)
	f.Add(append(append([]byte(nil), framed[:len(framed)-1]...), '\r', '\n'))
	f.Add(append(append([]byte(nil), valid...), '\r', '\n'))
	f.Add(append(append([]byte(nil), framed...), framed[:len(framed)-1]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var stores [2]*Store
		for i := range stores {
			path := filepath.Join(t.TempDir(), "fuzz.ndjson")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Skip()
			}
			s, err := Open(path, Options{})
			if err != nil {
				return // I/O-level failure is acceptable; panics are not
			}
			defer s.Close()
			stores[i] = s
		}
		s := stores[0]
		recs, err := s.All()
		if err != nil {
			return
		}
		if len(recs) != s.Count() {
			t.Fatalf("All() returned %d records, Count() = %d", len(recs), s.Count())
		}
		for _, r := range recs {
			if r.Validate() != nil {
				t.Fatalf("invalid record surfaced from scan: %+v", r)
			}
		}
		want, wantSeq := naiveStats(recs)
		if got := s.Stats(); !reflect.DeepEqual(got, want) {
			t.Fatalf("Stats() = %+v, recount from All() = %+v", got, want)
		}
		if s.MaxSeq() != wantSeq {
			t.Fatalf("MaxSeq() = %d, recount = %d", s.MaxSeq(), wantSeq)
		}

		// Recover as Open left it vs. forced onto the full re-read.
		slow := stores[1]
		slow.activeClean = false
		rep, err := s.Recover()
		if err != nil {
			t.Fatal(err)
		}
		slowRep, err := slow.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if rep != slowRep || s.Count() != slow.Count() || s.MaxSeq() != slow.MaxSeq() ||
			!reflect.DeepEqual(s.Stats(), slow.Stats()) {
			t.Fatalf("Recover: report %+v count %d vs slow path %+v count %d", rep, s.Count(), slowRep, slow.Count())
		}
		if a, b := storeFiles(t, s), storeFiles(t, slow); !reflect.DeepEqual(a, b) {
			t.Fatalf("Recover left %q, slow path %q", a, b)
		}

		// The store must remain appendable after ingesting garbage.
		if err := s.Append(Record{UserID: "u", Vector: "DC", Hash: "aa"}); err != nil {
			t.Fatalf("append after fuzz data: %v", err)
		}
	})
}
