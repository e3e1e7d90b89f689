// Package collate implements the paper's graph-based fingerprint collation
// (§3.2): an undirected bipartite graph with one node per user and one node
// per elementary fingerprint, an edge whenever a user's browser emitted that
// fingerprint, and connected components as the collated fingerprints. Users
// in one component share a collated fingerprint; a component with a single
// user is a unique fingerprint.
//
// Two connectivity backends are provided, mirroring the paper's §3.2
// discussion of fingerprinter data structures: a disjoint-set forest
// (incremental-only, near-O(1) amortized — the Seidel–Sharir analysis the
// paper cites) and a fully-dynamic Holm–de Lichtenberg–Thorup structure
// supporting deletions in O(log² n) amortized (the paper's [11]).
package collate

// UnionFind is a disjoint-set forest with union by rank and path
// compression, growable by Add.
type UnionFind struct {
	parent []int
	rank   []byte
	size   []int
	sets   int
}

// NewUnionFind creates a forest with n singleton sets (elements 0..n-1).
func NewUnionFind(n int) *UnionFind {
	u := &UnionFind{
		parent: make([]int, n),
		rank:   make([]byte, n),
		size:   make([]int, n),
		sets:   n,
	}
	for i := range u.parent {
		u.parent[i] = i
		u.size[i] = 1
	}
	return u
}

// Add appends a new singleton element and returns its index.
func (u *UnionFind) Add() int {
	i := len(u.parent)
	u.parent = append(u.parent, i)
	u.rank = append(u.rank, 0)
	u.size = append(u.size, 1)
	u.sets++
	return i
}

// Len returns the number of elements.
func (u *UnionFind) Len() int { return len(u.parent) }

// Sets returns the current number of disjoint sets.
func (u *UnionFind) Sets() int { return u.sets }

// Find returns the canonical representative of x's set.
func (u *UnionFind) Find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]] // path halving
		x = u.parent[x]
	}
	return x
}

// root is Find without path halving: it writes nothing, so readers
// holding only a shared lock may call it concurrently. Union by rank keeps
// the walk O(log n).
func (u *UnionFind) root(x int) int {
	for u.parent[x] != x {
		x = u.parent[x]
	}
	return x
}

// Union merges the sets of a and b and reports whether a merge happened
// (false when already joined).
func (u *UnionFind) Union(a, b int) bool {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return false
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	u.sets--
	return true
}

// SameSet reports whether a and b share a set.
func (u *UnionFind) SameSet(a, b int) bool { return u.Find(a) == u.Find(b) }

// SizeOf returns the number of elements in x's set.
func (u *UnionFind) SizeOf(x int) int { return u.size[u.Find(x)] }
