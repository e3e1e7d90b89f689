package collate

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// buildBoth streams the same random observation sequence into a string
// Graph and an IntGraph, asserting each edge's merge flag agrees.
func buildBoth(t *testing.T, rng *rand.Rand, users, universe, edges int) (*Graph, *IntGraph) {
	t.Helper()
	g := NewGraph()
	// Pre-register users in index order so Graph's user set matches the
	// dense population (a user with no observation stays a singleton).
	for u := 0; u < users; u++ {
		g.AddObservation(userName(u), fmt.Sprintf("seed-h%d", u))
	}
	// Universe layout: [0, universe) shared hashes, [universe,
	// universe+users) per-user seed fingerprints, then head-room for
	// never-inserted probe IDs.
	ig := NewIntGraph(users, universe+users+64)
	for u := 0; u < users; u++ {
		ig.AddObservation(int32(u), int32(universe+u))
	}
	for e := 0; e < edges; e++ {
		u := rng.Intn(users)
		h := rng.Intn(universe)
		want := g.AddObservation(userName(u), fmt.Sprintf("h%d", h))
		got := ig.AddObservation(int32(u), int32(h))
		if got != want {
			t.Fatalf("edge %d (u%d, h%d): IntGraph merge=%v, Graph merge=%v", e, u, h, got, want)
		}
	}
	return g, ig
}

func userName(u int) string { return fmt.Sprintf("u%d", u) }

// canonicalize maps arbitrary labels to first-appearance-dense int32s.
func canonicalize(labels []int) []int32 {
	seen := map[int]int32{}
	out := make([]int32, len(labels))
	for i, l := range labels {
		id, ok := seen[l]
		if !ok {
			id = int32(len(seen))
			seen[l] = id
		}
		out[i] = id
	}
	return out
}

// TestIntGraphMatchesGraph: the dense fast path must produce exactly the
// same components, labels (up to canonical renaming), cluster statistics
// and match results as the string graph over the same observations.
func TestIntGraphMatchesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const users, universe, edges = 200, 80, 3000
	g, ig := buildBoth(t, rng, users, universe, edges)

	names := make([]string, users)
	for u := range names {
		names[u] = userName(u)
	}
	want := canonicalize(g.Labels(names))
	got := ig.Labels()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("IntGraph labels differ from canonicalized Graph labels")
	}
	if ig.NumClusters() != g.NumClusters() {
		t.Errorf("NumClusters: IntGraph %d, Graph %d", ig.NumClusters(), g.NumClusters())
	}
	if ig.UniqueClusters() != g.UniqueClusters() {
		t.Errorf("UniqueClusters: IntGraph %d, Graph %d", ig.UniqueClusters(), g.UniqueClusters())
	}
	igSizes := append([]int(nil), ig.ClusterSizes()...)
	sort.Sort(sort.Reverse(sort.IntSlice(igSizes)))
	if !reflect.DeepEqual(igSizes, g.ClusterSizes()) {
		t.Errorf("ClusterSizes: IntGraph %v, Graph %v", igSizes, g.ClusterSizes())
	}

	// Match equivalence over random probe sets (including unseen IDs).
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(5)
		hashes := make([]string, n)
		ids := make([]int32, n)
		for i := 0; i < n; i++ {
			h := rng.Intn(universe + 20) // some misses
			hashes[i] = fmt.Sprintf("h%d", h)
			if h < universe {
				ids[i] = int32(h)
			} else {
				// "h80".."h99" were never observed; map them to the
				// never-inserted tail of the ID universe.
				ids[i] = int32(universe + users + (h - universe))
			}
		}
		wantCluster, wantRes := g.Match(hashes)
		gotCluster, gotRes := ig.Match(ids)
		if gotRes != wantRes {
			t.Fatalf("trial %d: Match result IntGraph=%v, Graph=%v", trial, gotRes, wantRes)
		}
		if wantRes != MatchUnique {
			continue
		}
		// The matched clusters must contain the same users.
		var wantUsers, gotUsers []int
		for u := 0; u < users; u++ {
			if id, ok := g.ClusterOf(userName(u)); ok && id == wantCluster {
				wantUsers = append(wantUsers, u)
			}
			if ig.ClusterOf(int32(u)) == gotCluster {
				gotUsers = append(gotUsers, u)
			}
		}
		if !reflect.DeepEqual(gotUsers, wantUsers) {
			t.Fatalf("trial %d: matched cluster users differ: %v vs %v", trial, gotUsers, wantUsers)
		}
	}
}

// TestIntGraphMatchManyRoots: Match must stay correct past its no-alloc
// fast path of 16 distinct roots.
func TestIntGraphMatchManyRoots(t *testing.T) {
	const users = 40
	ig := NewIntGraph(users, users)
	for u := 0; u < users; u++ {
		ig.AddObservation(int32(u), int32(u)) // 40 singleton clusters
	}
	all := make([]int32, users)
	for i := range all {
		all[i] = int32(i)
	}
	if _, res := ig.Match(all); res != MatchAmbiguous {
		t.Errorf("40-root probe: result %v, want MatchAmbiguous", res)
	}
	if c, res := ig.Match(all[3:4]); res != MatchUnique || ig.ClusterOf(3) != c {
		t.Errorf("single probe: cluster %d result %v, want unique cluster of user 3", c, res)
	}
	if _, res := ig.Match(nil); res != MatchNoEvidence {
		t.Error("empty probe must be MatchNoEvidence")
	}
}

// TestIntGraphMatchEvidence: the no-evidence / no-match distinction. An
// empty probe set carries no evidence at all; a non-empty probe set whose
// IDs are out of universe or never observed is evidence that matched
// nothing. Both graph flavors must agree.
func TestIntGraphMatchEvidence(t *testing.T) {
	ig := NewIntGraph(2, 4)
	ig.AddObservation(0, 0)
	ig.AddObservation(1, 1)

	if _, res := ig.Match(nil); res != MatchNoEvidence {
		t.Errorf("nil probe: %v, want MatchNoEvidence", res)
	}
	if _, res := ig.Match([]int32{}); res != MatchNoEvidence {
		t.Errorf("empty probe: %v, want MatchNoEvidence", res)
	}
	// In-universe but never observed.
	if _, res := ig.Match([]int32{2, 3}); res != MatchNone {
		t.Errorf("unobserved IDs: %v, want MatchNone", res)
	}
	// Entirely out of the interning universe.
	if _, res := ig.Match([]int32{99, 1000}); res != MatchNone {
		t.Errorf("out-of-universe IDs: %v, want MatchNone", res)
	}
	// A mix of unknown and known still identifies the known cluster.
	if c, res := ig.Match([]int32{99, 0}); res != MatchUnique || c != ig.ClusterOf(0) {
		t.Errorf("mixed probe: cluster %d result %v, want unique cluster of user 0", c, res)
	}

	// The string graph agrees on every case.
	g := NewGraph()
	g.AddObservation("u0", "h0")
	g.AddObservation("u1", "h1")
	if _, res := g.Match(nil); res != MatchNoEvidence {
		t.Errorf("string graph nil probe: %v, want MatchNoEvidence", res)
	}
	if _, res := g.Match([]string{"nope", "also-nope"}); res != MatchNone {
		t.Errorf("string graph unknown hashes: %v, want MatchNone", res)
	}
	for res, want := range map[MatchResult]string{
		MatchNone: "none", MatchUnique: "unique",
		MatchAmbiguous: "ambiguous", MatchNoEvidence: "no_evidence",
		MatchResult(42): "invalid",
	} {
		if got := res.String(); got != want {
			t.Errorf("MatchResult(%d).String() = %q, want %q", res, got, want)
		}
	}
}

// TestIntGraphLabelsInto: the pooled-buffer variant must equal Labels and
// reject short buffers.
func TestIntGraphLabelsInto(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	_, ig := buildBoth(t, rng, 50, 30, 300)
	dst := make([]int32, 50)
	canon := make([]int32, 50+ig.NumFingerprints()+50)
	if !reflect.DeepEqual(ig.LabelsInto(dst, canon), ig.Labels()) {
		t.Error("LabelsInto differs from Labels")
	}
	defer func() {
		if recover() == nil {
			t.Error("short buffer did not panic")
		}
	}()
	ig.LabelsInto(make([]int32, 1), canon)
}

// checkClusterCounts asserts g's maintained NumClusters/UniqueClusters
// against a tally of ClusterSizes.
func checkClusterCounts(t *testing.T, what string, g *IntGraph) {
	t.Helper()
	sizes := g.ClusterSizes()
	unique := 0
	for _, s := range sizes {
		if s == 1 {
			unique++
		}
	}
	if g.NumClusters() != len(sizes) || g.UniqueClusters() != unique {
		t.Fatalf("%s: maintained (clusters, unique) = (%d, %d), ClusterSizes tally (%d, %d)",
			what, g.NumClusters(), g.UniqueClusters(), len(sizes), unique)
	}
}

// TestIntGraphOnlineGrowth: a graph grown online (AddUser/EnsureUniverse/
// AddObservation, stream order) must equal a batch-constructed graph over
// the same observations, and its maintained cluster and unique-cluster
// counts must match a ClusterSizes tally after every edge — also on a
// Clone, and after Merge folds the graph into a fresh one (identity maps)
// and into one already holding a disjoint half of the users.
func TestIntGraphOnlineGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const users, universe, edges = 120, 60, 2000

	batch := NewIntGraph(users, universe)
	online := NewIntGraph(0, 0)
	added := 0
	addUser := func(u int) {
		for added <= u {
			if got := online.AddUser(); got != int32(added) {
				t.Fatalf("AddUser returned %d, want %d", got, added)
			}
			added++
		}
	}
	identity := func(n int) []int32 {
		m := make([]int32, n)
		for i := range m {
			m[i] = int32(i)
		}
		return m
	}
	for e := 0; e < edges; e++ {
		u := rng.Intn(users)
		h := rng.Intn(universe)
		addUser(u)
		online.EnsureUniverse(h + 1)
		want := batch.AddObservation(int32(u), int32(h))
		if merged := online.AddObservation(int32(u), int32(h)); merged != want {
			t.Fatalf("edge %d (u%d, h%d): online merge=%v, batch merge=%v", e, u, h, merged, want)
		}
		checkClusterCounts(t, fmt.Sprintf("online after edge %d", e), online)
		checkClusterCounts(t, fmt.Sprintf("batch after edge %d", e), batch)
		if e%97 != 0 {
			continue
		}
		checkClusterCounts(t, fmt.Sprintf("clone after edge %d", e), online.Clone())
		n := online.NumUsers()
		fresh := NewIntGraph(n, universe)
		fresh.Merge(online, identity(n), identity(universe))
		checkClusterCounts(t, fmt.Sprintf("merge into fresh after edge %d", e), fresh)
		if fresh.NumClusters() != online.NumClusters() {
			t.Fatalf("edge %d: merge into fresh has %d clusters, want %d", e, fresh.NumClusters(), online.NumClusters())
		}
		// Fold the batch graph and the online graph, its users shifted past
		// the batch population, into one: clusters of the two fuse on
		// shared fingerprints.
		joint := NewIntGraph(users+n, universe)
		joint.Merge(batch, identity(users), identity(universe))
		shifted := make([]int32, n)
		for i := range shifted {
			shifted[i] = int32(users + i)
		}
		joint.Merge(online, shifted, identity(universe))
		checkClusterCounts(t, fmt.Sprintf("joint merge after edge %d", e), joint)
	}
	addUser(users - 1) // any stragglers never observed
	checkClusterCounts(t, "online after stragglers", online)

	// Online labels cover only users seen so far; compare the full set.
	got, want := online.Labels(), batch.Labels()
	if !reflect.DeepEqual(got, want) {
		t.Error("online labels differ from batch labels")
	}
	if online.NumClusters() != batch.NumClusters() || online.UniqueClusters() != batch.UniqueClusters() {
		t.Errorf("cluster stats differ: online (%d, %d) vs batch (%d, %d)",
			online.NumClusters(), online.UniqueClusters(), batch.NumClusters(), batch.UniqueClusters())
	}
	sizes, labels := batch.ClusterSizes(), batch.Labels()
	for u := int32(0); u < users; u++ {
		if got, want := online.ComponentUsers(u), int32(sizes[labels[u]]); got != want {
			t.Fatalf("ComponentUsers(%d) = %d, want %d", u, got, want)
		}
	}
}
