package storage

// Stats is a snapshot of a store's record and participant counts — what
// the collection site's GET /api/v1/stats serves.
type Stats struct {
	// Records is the number of stored records.
	Records int
	// Users is the number of distinct user IDs.
	Users int
	// Vectors holds each stored vector name's own counts.
	Vectors map[string]VectorStats
}

// VectorStats is one vector's share of Stats.
type VectorStats struct {
	// Records is the number of records of the vector.
	Records int
	// Users is the number of distinct users with a record of the vector.
	Users int
}

// StatsIndex maintains Stats incrementally, so the counts never need a
// re-read of the log. Add is O(1); memory is one map entry per distinct
// user, per distinct vector name and per distinct (user, vector) pair,
// exact for any vector name Record.Validate accepts. The zero value is an
// empty index. Not safe for concurrent use (Store guards its index with
// its mutex).
type StatsIndex struct {
	records int
	users   map[string]uint32   // user ID → dense user index
	vectors map[string]uint32   // vector name → index into perVec
	perVec  []VectorStats       // by vector index
	pairs   map[uint64]struct{} // user index<<32 | vector index, seen
}

// Add counts one record.
func (x *StatsIndex) Add(r *Record) {
	if x.users == nil {
		x.users = map[string]uint32{}
		x.vectors = map[string]uint32{}
		x.pairs = map[uint64]struct{}{}
	}
	u, ok := x.users[r.UserID]
	if !ok {
		u = uint32(len(x.users))
		x.users[r.UserID] = u
	}
	v, ok := x.vectors[r.Vector]
	if !ok {
		v = uint32(len(x.perVec))
		x.vectors[r.Vector] = v
		x.perVec = append(x.perVec, VectorStats{})
	}
	x.records++
	x.perVec[v].Records++
	pair := uint64(u)<<32 | uint64(v)
	if _, seen := x.pairs[pair]; !seen {
		x.pairs[pair] = struct{}{}
		x.perVec[v].Users++
	}
}

// Stats snapshots the index in O(vectors).
func (x *StatsIndex) Stats() Stats {
	st := Stats{Records: x.records, Users: len(x.users),
		Vectors: make(map[string]VectorStats, len(x.vectors))}
	for name, v := range x.vectors {
		st.Vectors[name] = x.perVec[v]
	}
	return st
}
