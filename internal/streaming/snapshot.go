package streaming

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/diversity"
	"repro/internal/vectors"
)

// This file holds the one implementation of every served analytics row:
// the State methods below. An Engine answers from its live State under its
// read lock, a shard router from the merge of its engines' States.
//
// Snapshot types carry their own JSON tags: they are the payloads of the
// GET /api/v1/analytics/* routes.

// DiversityRow is one Table 2/3-style row of the live population.
type DiversityRow struct {
	Name        string  `json:"name"`
	Users       int     `json:"users"`
	Distinct    int     `json:"distinct"`
	Unique      int     `json:"unique"`
	EntropyBits float64 `json:"entropy_bits"`
	Normalized  float64 `json:"normalized"`
}

// EntropySnapshot is the live diversity table: the seven collated audio
// vectors, their combination, and the non-audio surfaces.
type EntropySnapshot struct {
	Records int64          `json:"records"`
	Users   int            `json:"users"`
	Rows    []DiversityRow `json:"rows"`
}

// ClusterRow is one vector's live collation-graph statistics.
type ClusterRow struct {
	Vector       string `json:"vector"`
	Users        int    `json:"users"`
	Clusters     int    `json:"clusters"`
	Unique       int    `json:"unique"`
	Fingerprints int    `json:"fingerprints"`
	Observations int64  `json:"observations"`
}

// ClusterSnapshot is the live per-vector collation state.
type ClusterSnapshot struct {
	Records int64        `json:"records"`
	Users   int          `json:"users"`
	Rows    []ClusterRow `json:"rows"`
}

// StabilityRow is one vector's live Table 1 row: distinct elementary
// fingerprints per user.
type StabilityRow struct {
	Vector string  `json:"vector"`
	Min    int     `json:"min"`
	Max    int     `json:"max"`
	Mean   float64 `json:"mean"`
}

// StabilitySnapshot is the live stability table.
type StabilitySnapshot struct {
	Records int64          `json:"records"`
	Users   int            `json:"users"`
	Rows    []StabilityRow `json:"rows"`
}

// AMISnapshot is the periodically refreshed pairwise-vector AMI matrix
// (Figure 5). Records is the applied-record count at refresh time —
// unlike the other snapshots it can lag the live state by up to
// Config.AMIRefreshEvery records.
type AMISnapshot struct {
	Records int64       `json:"records"`
	Vectors []string    `json:"vectors"`
	Matrix  [][]float64 `json:"matrix"`
}

// StatusSnapshot reports the engine's ingestion position.
type StatusSnapshot struct {
	Records      int64 `json:"records"`
	Users        int   `json:"users"`
	QueueDepth   int   `json:"queue_depth"`
	QueueCap     int   `json:"queue_capacity"`
	AMIRecords   int64 `json:"ami_records"`
	AMIAutomatic bool  `json:"ami_automatic"`
}

// summaryRow converts a stable diversity summary into an API row.
func summaryRow(name string, s diversity.Summary) DiversityRow {
	return DiversityRow{
		Name:        name,
		Users:       s.Users,
		Distinct:    s.Distinct,
		Unique:      s.Unique,
		EntropyBits: s.EntropyBits,
		Normalized:  s.Normalized,
	}
}

// surfaceCounts converts a surface's value→count map into a group-size
// multiset.
func surfaceCounts(m map[string]int64) []int {
	cs := make([]int, 0, len(m))
	for _, n := range m {
		cs = append(cs, int(n))
	}
	return cs
}

// vecIndex returns v's position in vectors.All, or -1.
func vecIndex(v vectors.ID) int {
	for i, vv := range vectors.All {
		if vv == v {
			return i
		}
	}
	return -1
}

// labels returns every vector's first-appearance-canonical cluster labels
// over the state's dense user order.
func (s *State) labels() [][]int32 {
	labels := make([][]int32, len(s.Vecs))
	for i := range s.Vecs {
		labels[i] = s.Vecs[i].Graph.Labels()
	}
	return labels
}

// Diversity returns the entropy table. Each audio row reduces the vector's
// cluster-size multiset, tallied from the labels the Combined row needs
// anyway (O(users·vectors)); surface rows reduce the value counts. Every
// float goes through diversity.SummaryFromCounts, which sorts its input —
// so the rows are bit-identical to the batch analyses and cannot depend on
// merge order.
func (s *State) Diversity() EntropySnapshot {
	snap := EntropySnapshot{Records: s.Records, Users: len(s.Users)}
	labels := s.labels()
	for i, v := range vectors.All {
		sizes := make([]int, s.Vecs[i].Graph.NumClusters())
		for _, l := range labels[i] {
			sizes[l]++
		}
		snap.Rows = append(snap.Rows, summaryRow(v.String(), diversity.SummaryFromCounts(sizes)))
	}
	if len(s.Users) > 0 {
		combined, err := diversity.Combine(labels...)
		if err != nil {
			panic(err) // impossible: all parts share the population length
		}
		snap.Rows = append(snap.Rows, summaryRow("Combined", diversity.SummarizeStable(combined)))
	}
	for si, counts := range s.Surfaces {
		snap.Rows = append(snap.Rows, summaryRow(surfaceNames[si],
			diversity.SummaryFromCounts(surfaceCounts(counts))))
	}
	return snap
}

// Clusters returns the per-vector collation statistics, O(vectors).
func (s *State) Clusters() ClusterSnapshot {
	snap := ClusterSnapshot{Records: s.Records, Users: len(s.Users)}
	for i, v := range vectors.All {
		vs := &s.Vecs[i]
		snap.Rows = append(snap.Rows, ClusterRow{
			Vector:       v.String(),
			Users:        vs.Graph.NumUsers(),
			Clusters:     vs.Graph.NumClusters(),
			Unique:       vs.Graph.UniqueClusters(),
			Fingerprints: vs.Graph.NumFingerprints(),
			Observations: vs.Obs,
		})
	}
	return snap
}

// Stability returns the Table 1 rows: distinct elementary fingerprints per
// user.
func (s *State) Stability() StabilitySnapshot {
	snap := StabilitySnapshot{Records: s.Records, Users: len(s.Users)}
	for i, v := range vectors.All {
		row := StabilityRow{Vector: v.String()}
		if d := s.Vecs[i].Distinct; len(d) > 0 {
			lo, hi, sum := d[0], d[0], 0
			for _, c := range d {
				lo, hi, sum = min(lo, c), max(hi, c), sum+c
			}
			row.Min, row.Max, row.Mean = lo, hi, float64(sum)/float64(len(d))
		}
		snap.Rows = append(snap.Rows, row)
	}
	return snap
}

// AMI computes the pairwise-vector AMI matrix, matching
// Dataset.PairwiseVectorAMI bit for bit: diagonal 1, AMIDense over
// first-appearance-canonical labels in the state's dense user order.
func (s *State) AMI() *AMISnapshot {
	k := len(vectors.All)
	snap := &AMISnapshot{Records: s.Records, Vectors: make([]string, k)}
	for i, v := range vectors.All {
		snap.Vectors[i] = v.String()
	}
	if len(s.Users) == 0 {
		return snap
	}
	labels := s.labels()
	snap.Matrix = make([][]float64, k)
	for i := range snap.Matrix {
		snap.Matrix[i] = make([]float64, k)
		snap.Matrix[i][i] = 1
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			v, err := cluster.AMIDense(labels[i], labels[j],
				s.Vecs[i].Graph.NumClusters(), s.Vecs[j].Graph.NumClusters())
			if err != nil {
				continue // unreachable for a non-empty population
			}
			snap.Matrix[i][j] = v
			snap.Matrix[j][i] = v
		}
	}
	return snap
}

// Labels returns v's first-appearance-canonical cluster labels in dense
// user order — the counterpart of Dataset.Labels.
func (s *State) Labels(v vectors.ID) []int {
	i := vecIndex(v)
	if i < 0 {
		return nil
	}
	labels := s.Vecs[i].Graph.Labels()
	out := make([]int, len(labels))
	for j, l := range labels {
		out[j] = int(l)
	}
	return out
}

// DistinctPerUser returns how many distinct elementary fingerprints each
// user has emitted for v, in dense user order — the counterpart of
// Dataset.DistinctPerUser.
func (s *State) DistinctPerUser(v vectors.ID) []int {
	i := vecIndex(v)
	if i < 0 {
		return nil
	}
	return append([]int(nil), s.Vecs[i].Distinct...)
}

// read runs one State method on the engine's live state under its read
// lock — the whole of every Engine read method.
func read[T any](e *Engine, f func(*State) T) T {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return f(e.st)
}

// Diversity returns the live entropy table (State.Diversity).
func (e *Engine) Diversity() EntropySnapshot { return read(e, (*State).Diversity) }

// Clusters returns the live per-vector collation statistics.
func (e *Engine) Clusters() ClusterSnapshot { return read(e, (*State).Clusters) }

// Stability returns the live Table 1 rows.
func (e *Engine) Stability() StabilitySnapshot { return read(e, (*State).Stability) }

// DistinctPerUser returns the live distinct-fingerprint count per user
// for v (State.DistinctPerUser).
func (e *Engine) DistinctPerUser(v vectors.ID) []int {
	return read(e, func(s *State) []int { return s.DistinctPerUser(v) })
}

// Labels returns the live cluster labels of v (State.Labels).
func (e *Engine) Labels(v vectors.ID) []int {
	return read(e, func(s *State) []int { return s.Labels(v) })
}

// Users returns the user IDs in dense (first-record) order.
func (e *Engine) Users() []string {
	return read(e, func(s *State) []string { return append([]string(nil), s.Users...) })
}

// AMI returns the most recent pairwise-AMI snapshot, or nil when none has
// been computed yet (empty population or refresh never triggered).
func (e *Engine) AMI() *AMISnapshot {
	e.amiMu.Lock()
	defer e.amiMu.Unlock()
	return e.ami
}

// RefreshAMI recomputes the pairwise-vector AMI matrix from the live
// state (State.AMI) and installs it as the served snapshot.
func (e *Engine) RefreshAMI() *AMISnapshot {
	start := time.Now()
	snap := read(e, (*State).AMI)
	e.amiMu.Lock()
	e.ami = snap
	e.lastAMI = snap.Records
	e.amiMu.Unlock()
	e.met.amiRefreshes.Inc()
	e.met.amiSeconds.Observe(time.Since(start).Seconds())
	return snap
}

// Status reports the engine's ingestion position and queue occupancy.
func (e *Engine) Status() StatusSnapshot {
	e.mu.RLock()
	records := e.st.Records
	users := len(e.st.Users)
	e.mu.RUnlock()
	e.amiMu.Lock()
	amiRecords := e.lastAMI
	e.amiMu.Unlock()
	return StatusSnapshot{
		Records:      records,
		Users:        users,
		QueueDepth:   len(e.queue),
		QueueCap:     e.queueDepth,
		AMIRecords:   amiRecords,
		AMIAutomatic: e.amiEvery > 0,
	}
}
