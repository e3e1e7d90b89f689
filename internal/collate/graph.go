package collate

import "sort"

// Graph is the bipartite user↔fingerprint collation graph. Observations are
// added incrementally, as they would stream into a fingerprinter's backend;
// connectivity is maintained by a disjoint-set forest, so cluster queries
// are effectively O(α(n)).
type Graph struct {
	uf      *UnionFind
	users   map[string]int // user id → element
	fps     map[string]int // fingerprint hash → element
	userIDs []string       // insertion-ordered user ids
}

// NewGraph returns an empty collation graph.
func NewGraph() *Graph {
	return &Graph{
		uf:    NewUnionFind(0),
		users: make(map[string]int),
		fps:   make(map[string]int),
	}
}

// NumUsers returns the number of distinct users observed.
func (g *Graph) NumUsers() int { return len(g.users) }

// NumFingerprints returns the number of distinct elementary fingerprints.
func (g *Graph) NumFingerprints() int { return len(g.fps) }

// AddObservation records that user emitted the elementary fingerprint hash,
// creating nodes as needed and merging components. It reports whether the
// edge changed connectivity (i.e. merged two previously distinct collated
// fingerprints — the "new collisions can pop up" dynamic of §3.2).
func (g *Graph) AddObservation(user, hash string) bool {
	un, ok := g.users[user]
	if !ok {
		un = g.uf.Add()
		g.users[user] = un
		g.userIDs = append(g.userIDs, user)
	}
	fn, ok := g.fps[hash]
	if !ok {
		fn = g.uf.Add()
		g.fps[hash] = fn
	}
	return g.uf.Union(un, fn)
}

// HasUser reports whether the user has been observed.
func (g *Graph) HasUser(user string) bool {
	_, ok := g.users[user]
	return ok
}

// ClusterOf returns a canonical identifier of the user's collated
// fingerprint (its connected component). The identifier is stable only for
// the graph's current state. ok is false for unknown users.
func (g *Graph) ClusterOf(user string) (id int, ok bool) {
	n, ok := g.users[user]
	if !ok {
		return 0, false
	}
	return g.uf.Find(n), true
}

// NumClusters returns the number of collated fingerprints: connected
// components containing at least one user.
func (g *Graph) NumClusters() int {
	seen := make(map[int]struct{}, len(g.users))
	for _, n := range g.users {
		seen[g.uf.Find(n)] = struct{}{}
	}
	return len(seen)
}

// Clusters returns the users of each component, keyed by canonical id, each
// list sorted for determinism.
func (g *Graph) Clusters() map[int][]string {
	out := make(map[int][]string)
	for u, n := range g.users {
		root := g.uf.Find(n)
		out[root] = append(out[root], u)
	}
	for _, us := range out {
		sort.Strings(us)
	}
	return out
}

// ClusterSizes returns the user-count of every cluster, descending.
func (g *Graph) ClusterSizes() []int {
	counts := make(map[int]int)
	for _, n := range g.users {
		counts[g.uf.Find(n)]++
	}
	sizes := make([]int, 0, len(counts))
	for _, c := range counts {
		sizes = append(sizes, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	return sizes
}

// UniqueClusters returns how many clusters contain exactly one user (the
// "Unique" column of the paper's Tables 2–4).
func (g *Graph) UniqueClusters() int {
	n := 0
	for _, s := range g.ClusterSizes() {
		if s == 1 {
			n++
		}
	}
	return n
}

// Labels returns, for each user id in users, the canonical id of its
// cluster; unknown users get -1. The result is a clustering assignment
// suitable for agreement metrics.
func (g *Graph) Labels(users []string) []int {
	out := make([]int, len(users))
	for i, u := range users {
		if id, ok := g.ClusterOf(u); ok {
			out[i] = id
		} else {
			out[i] = -1
		}
	}
	return out
}

// Users returns all observed user ids in insertion order. The returned
// slice is shared; callers must not modify it.
func (g *Graph) Users() []string { return g.userIDs }

// MatchResult is the outcome of matching a returning visitor's fingerprints
// against a training graph (the §3.3 "fingerprint match score" primitive).
type MatchResult int

const (
	// MatchNone means fingerprints were submitted but none was ever seen —
	// the visitor presented evidence and it matched nothing.
	MatchNone MatchResult = iota
	// MatchUnique means all recognized fingerprints point to one cluster.
	MatchUnique
	// MatchAmbiguous means recognized fingerprints span several clusters —
	// which cannot persist: inserting them would merge those clusters.
	MatchAmbiguous
	// MatchNoEvidence means the submitted set was empty: there was nothing
	// to match. Distinct from MatchNone, where evidence existed but was
	// unrecognized — a verification layer treats the former as a malformed
	// query and the latter as a (weak) rejection signal.
	MatchNoEvidence
)

// String renders the result for logs and decision payloads.
func (r MatchResult) String() string {
	switch r {
	case MatchNone:
		return "none"
	case MatchUnique:
		return "unique"
	case MatchAmbiguous:
		return "ambiguous"
	case MatchNoEvidence:
		return "no_evidence"
	}
	return "invalid"
}

// HasFingerprint reports whether the elementary fingerprint hash has been
// observed by this graph.
func (g *Graph) HasFingerprint(hash string) bool {
	_, ok := g.fps[hash]
	return ok
}

// Match looks up a set of elementary fingerprints without inserting them
// and returns which existing cluster they identify. An empty set returns
// MatchNoEvidence; a non-empty set in which nothing is recognized returns
// MatchNone. It writes nothing, so concurrent Match calls on one graph
// are safe.
func (g *Graph) Match(hashes []string) (cluster int, res MatchResult) {
	if len(hashes) == 0 {
		return 0, MatchNoEvidence
	}
	found := make(map[int]struct{})
	var first int
	for _, h := range hashes {
		n, ok := g.fps[h]
		if !ok {
			continue
		}
		root := g.uf.root(n)
		if _, dup := found[root]; !dup {
			found[root] = struct{}{}
			first = root
		}
	}
	switch len(found) {
	case 0:
		return 0, MatchNone
	case 1:
		return first, MatchUnique
	default:
		return 0, MatchAmbiguous
	}
}
