package streaming

import (
	"fmt"
	"maps"
	"sort"

	"repro/internal/collate"
	"repro/internal/vectors"
)

// State is the analysis state every served row is computed from (the
// methods in snapshot.go). An Engine keeps a live State and applies records
// to it; Engine.State hands out a deep copy, which can be combined with the
// states of other engines — the merge algebra the sharded ingest plane is
// built on (DESIGN.md §14). Each shard's engine owns a disjoint slice of
// the user population; State captures that slice together with the
// per-user global arrival sequence, and Merge folds two slices into one
// whose analytics payloads are bit-identical to an engine that ingested
// the union directly.
//
// Merge is associative and commutative, with NewState() as the identity —
// the property that lets a router fold shard snapshots in any order (or a
// tree) and serve one answer. The proof obligation is discharged by the
// payload shapes: every served quantity depends only on (a) the user
// partition of each vector's collation graph, (b) the global user order
// reconstructed from Seq, and (c) per-user counts and per-value user
// counts — none on the shard-local dense ID assignment that differs
// between merge orders.
type State struct {
	// Users holds the user IDs in this state's dense order; Seq holds each
	// user's global first-seen sequence number. Within one engine the dense
	// order is arrival order, so Engine.State stamps Seq 0..n-1; a router
	// overwrites Seq with its global ledger before merging so the merged
	// dense order reproduces the single-engine arrival order exactly
	// (labels and AMI depend on it).
	Users []string
	Seq   []int64
	// Records counts applied records (audio + auxiliary).
	Records int64
	// Surfaces holds, per surface in index order (surfCanvas..surfUA), how
	// many users currently hold each value ("" counts the users with none).
	// Users are disjoint across states and each holds one current value,
	// so counts merge by addition.
	Surfaces []map[string]int64
	// Vecs holds one VecState per vectors.All entry.
	Vecs []VecState
}

// VecState is one audio vector's mergeable analysis state.
type VecState struct {
	// Hashes maps this state's dense fingerprint ID to the fingerprint
	// hash — the intern table exported in ID order, which is what lets
	// Merge translate two shard-local universes into one.
	Hashes []string
	// Graph is the collation graph over this state's users and Hashes.
	Graph *collate.IntGraph
	// Distinct holds each user's distinct-fingerprint count in dense user
	// order (users are shard-disjoint, so counts merge by scatter).
	Distinct []int
	// Obs counts observations applied, duplicates included.
	Obs int64
}

// State returns a deep copy of the engine's live analysis state. Within
// one engine the dense order is arrival order, so Seq is 0..n-1. The copy
// shares nothing with the live engine.
func (e *Engine) State() *State {
	return read(e, (*State).Clone)
}

// Clone returns a deep copy of s sharing nothing with it.
func (s *State) Clone() *State {
	c := &State{
		Users:    append([]string(nil), s.Users...),
		Seq:      append([]int64(nil), s.Seq...),
		Records:  s.Records,
		Surfaces: make([]map[string]int64, len(s.Surfaces)),
		Vecs:     make([]VecState, len(s.Vecs)),
	}
	for i, m := range s.Surfaces {
		c.Surfaces[i] = maps.Clone(m)
	}
	for i, vs := range s.Vecs {
		c.Vecs[i] = VecState{
			Hashes:   append([]string(nil), vs.Hashes...),
			Graph:    vs.Graph.Clone(),
			Distinct: append([]int(nil), vs.Distinct...),
			Obs:      vs.Obs,
		}
	}
	return c
}

// NewState returns the merge identity: an empty state over zero users.
func NewState() *State {
	s := &State{
		Surfaces: make([]map[string]int64, numSurfaces),
		Vecs:     make([]VecState, len(vectors.All)),
	}
	for i := range s.Surfaces {
		s.Surfaces[i] = map[string]int64{}
	}
	for i := range s.Vecs {
		s.Vecs[i] = VecState{Graph: collate.NewIntGraph(0, 0)}
	}
	return s
}

// Merge combines two states over disjoint user sets into a new state; both
// inputs are left unchanged. The merged dense user order is by ascending
// Seq (user ID as a tie-break, which never fires when Seq comes from one
// global ledger), so a router stamping global sequences gets back the
// single-engine arrival order. Sharing a user between the two states
// is a routing bug and returns an error.
func (s *State) Merge(o *State) (*State, error) {
	na, nb := len(s.Users), len(o.Users)
	m := &State{
		Users:    make([]string, 0, na+nb),
		Seq:      make([]int64, 0, na+nb),
		Records:  s.Records + o.Records,
		Surfaces: make([]map[string]int64, numSurfaces),
		Vecs:     make([]VecState, len(s.Vecs)),
	}
	// Two-pointer merge by (Seq, Users) producing each input's user→merged
	// translation.
	mapA := make([]int32, na)
	mapB := make([]int32, nb)
	i, j := 0, 0
	for i < na || j < nb {
		takeA := j >= nb
		if i < na && j < nb {
			switch {
			case s.Seq[i] < o.Seq[j]:
				takeA = true
			case s.Seq[i] > o.Seq[j]:
				takeA = false
			default:
				takeA = s.Users[i] < o.Users[j]
			}
		}
		if takeA {
			mapA[i] = int32(len(m.Users))
			m.Users = append(m.Users, s.Users[i])
			m.Seq = append(m.Seq, s.Seq[i])
			i++
		} else {
			mapB[j] = int32(len(m.Users))
			m.Users = append(m.Users, o.Users[j])
			m.Seq = append(m.Seq, o.Seq[j])
			j++
		}
	}
	if overlap := findOverlap(m.Users); overlap != "" {
		return nil, fmt.Errorf("streaming: Merge states share user %q", overlap)
	}
	for si := range m.Surfaces {
		sum := maps.Clone(s.Surfaces[si])
		for v, n := range o.Surfaces[si] {
			sum[v] += n
		}
		m.Surfaces[si] = sum
	}
	for vi := range s.Vecs {
		a, b := &s.Vecs[vi], &o.Vecs[vi]
		// Merged intern table: a's hashes keep their IDs, b's unseen
		// hashes append in b's ID order. The assignment order differs
		// between merge orders, but no payload reads fingerprint IDs —
		// only partition structure and per-user counts.
		hashes := append([]string(nil), a.Hashes...)
		idx := make(map[string]int32, len(a.Hashes)+len(b.Hashes))
		for id, h := range hashes {
			idx[h] = int32(id)
		}
		fpMapA := make([]int32, len(a.Hashes))
		for id := range fpMapA {
			fpMapA[id] = int32(id)
		}
		fpMapB := make([]int32, len(b.Hashes))
		for id, h := range b.Hashes {
			mid, ok := idx[h]
			if !ok {
				mid = int32(len(hashes))
				hashes = append(hashes, h)
				idx[h] = mid
			}
			fpMapB[id] = mid
		}
		g := collate.NewIntGraph(len(m.Users), len(hashes))
		g.Merge(a.Graph, mapA, fpMapA)
		g.Merge(b.Graph, mapB, fpMapB)
		distinct := make([]int, len(m.Users))
		for u, d := range a.Distinct {
			distinct[mapA[u]] = d
		}
		for u, d := range b.Distinct {
			distinct[mapB[u]] = d
		}
		m.Vecs[vi] = VecState{
			Hashes:   hashes,
			Graph:    g,
			Distinct: distinct,
			Obs:      a.Obs + b.Obs,
		}
	}
	return m, nil
}

// findOverlap returns a user ID appearing twice in the sorted-by-arrival
// merged list, or "". Duplicates are detected with a sorted copy so the
// scan is O(n log n) without a map allocation per merge.
func findOverlap(users []string) string {
	if len(users) < 2 {
		return ""
	}
	sorted := append([]string(nil), users...)
	sort.Strings(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return sorted[i]
		}
	}
	return ""
}
