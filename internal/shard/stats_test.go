package shard_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/shard"
	"repro/internal/storage"
)

// recount computes Stats from a full record list with plain maps.
func recount(recs []storage.Record) storage.Stats {
	users := map[string]bool{}
	pairs := map[[2]string]bool{}
	st := storage.Stats{Records: len(recs), Vectors: map[string]storage.VectorStats{}}
	for _, r := range recs {
		users[r.UserID] = true
		v := st.Vectors[r.Vector]
		v.Records++
		if !pairs[[2]string{r.UserID, r.Vector}] {
			pairs[[2]string{r.UserID, r.Vector}] = true
			v.Users++
		}
		st.Vectors[r.Vector] = v
	}
	st.Users = len(users)
	return st
}

// TestStoresStatsDifferential: the summed per-shard stats index equals a
// recount of All(), and a single store's index over the same records,
// through random appends, segment rotation, a torn tail plus Recover, and
// reopening — at N = 1 and N = 3.
func TestStoresStatsDifferential(t *testing.T) {
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(n)))
			dir := t.TempDir()
			base := filepath.Join(dir, "fp.ndjson")
			opts := storage.Options{MaxSegmentBytes: 2048}
			ref, err := storage.Open(filepath.Join(dir, "ref.ndjson"), storage.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			check := func(ss *shard.Stores, when string) {
				t.Helper()
				all, err := ss.All()
				if err != nil {
					t.Fatal(err)
				}
				got := ss.Stats()
				if want := recount(all); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Stats() = %+v, recount from All() = %+v", when, got, want)
				}
				if want := ref.Stats(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: sharded Stats() = %+v, single store = %+v", when, got, want)
				}
			}
			vecs := []string{"DC", "FFT", "AM", "Fonts", "not-a-server-vector"}
			appendRandom := func(ss *shard.Stores, batches int) {
				for i := 0; i < batches; i++ {
					recs := make([]storage.Record, 1+rng.Intn(6))
					for j := range recs {
						recs[j] = storage.Record{
							UserID: fmt.Sprintf("u%d", rng.Intn(50)),
							Vector: vecs[rng.Intn(len(vecs))],
							Hash:   fmt.Sprintf("%x", rng.Intn(6)),
						}
					}
					if err := ss.Append(recs...); err != nil {
						t.Fatal(err)
					}
					if err := ref.Append(recs...); err != nil {
						t.Fatal(err)
					}
				}
			}

			ss, err := shard.OpenStores(base, n, opts)
			if err != nil {
				t.Fatal(err)
			}
			check(ss, "empty")
			appendRandom(ss, 60)
			check(ss, "appended")
			if len(ss.Shard(0).Segments()) == 0 {
				t.Fatal("no segment sealed")
			}
			ss.Close()

			// Tear shard 0's active file mid-record.
			f, err := os.OpenFile(shard.StorePath(base, 0), os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			f.WriteString(`{"session_id":"s","user_id":"torn","vector":"DC","ha`)
			f.Close()

			ss, err = shard.OpenStores(base, n, opts)
			if err != nil {
				t.Fatal(err)
			}
			check(ss, "open with torn tail")
			reps, err := ss.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if reps[0].DroppedBytes == 0 {
				t.Fatal("Recover dropped nothing from the torn shard")
			}
			check(ss, "recover")
			appendRandom(ss, 20)
			check(ss, "append after recover")
			ss.Close()

			ss, err = shard.OpenStores(base, n, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer ss.Close()
			check(ss, "reopen")
		})
	}
}
