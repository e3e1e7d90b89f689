package streaming_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/streaming"
	"repro/internal/study"
	"repro/internal/vectors"
)

// The acceptance bar for the streaming engine: at the paper's population
// scale (2093 users), folding one more record into the live state must be
// ≥100× cheaper than recomputing the batch analytics from scratch —
// otherwise "incremental" is marketing. make bench-stream runs these and
// emits BENCH_stream.json via cmd/benchjson.

var benchOnce sync.Once
var benchRecs []storage.Record

// benchRecords renders the paper-scale population once per process. Three
// iterations keep the render affordable while the user count — what the
// batch recompute cost scales with — stays at the paper's 2093.
func benchRecords(b *testing.B) []storage.Record {
	b.Helper()
	benchOnce.Do(func() {
		ds, err := study.Run(study.Config{Seed: 20220325, Users: 2093, Iterations: 3, Parallelism: 0})
		if err != nil {
			b.Fatal(err)
		}
		benchRecs = ds.ToRecords(time.Unix(1660000000, 0).UTC())
	})
	return benchRecs
}

// BenchmarkStreamIncrementalApply measures the amortized cost of applying
// one record to an engine already holding the full 2093-user population.
func BenchmarkStreamIncrementalApply(b *testing.B) {
	recs := benchRecords(b)
	eng := streaming.New(streaming.Config{Registry: obs.NewRegistry(), AMIRefreshEvery: -1})
	defer eng.Close()
	eng.Bootstrap(recs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Cycling through real records keeps the union-find, interning and
		// distinct-set paths honest (mix of merges, hits and no-ops).
		eng.Apply(recs[i%len(recs) : i%len(recs)+1])
	}
}

// BenchmarkStreamBatchRecompute measures what serving the same answer
// costs without the engine: reload all records and recompute the
// diversity rows, cluster stats and AMI matrix from scratch.
func BenchmarkStreamBatchRecompute(b *testing.B) {
	recs := benchRecords(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := study.FromRecordsOpts(recs, study.LoadOptions{KeepAllObservations: true})
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range vectors.All {
			_ = ds.Labels(v)
			_ = ds.DistinctPerUser(v)
		}
		_ = ds.Table2()
		if _, err := ds.PairwiseVectorAMI(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamSnapshot measures the read path: one served analytics
// read from live state per iteration — the entropy table (including the
// O(users·vectors) Combined row), the cluster and stability tables, the
// cached AMI snapshot, and the AMI recompute behind it.
func BenchmarkStreamSnapshot(b *testing.B) {
	recs := benchRecords(b)
	eng := streaming.New(streaming.Config{Registry: obs.NewRegistry(), AMIRefreshEvery: -1})
	defer eng.Close()
	eng.Bootstrap(recs)
	for _, bc := range []struct {
		name string
		read func()
	}{
		{"entropy", func() { _ = eng.Diversity() }},
		{"clusters", func() { _ = eng.Clusters() }},
		{"stability", func() { _ = eng.Stability() }},
		{"ami", func() { _ = eng.AMI() }},
		{"ami_refresh", func() { _ = eng.RefreshAMI() }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.read()
			}
		})
	}
}
