package cluster

import (
	"math"
	"math/rand"
	"testing"
)

// directExpectedMI is the oracle for ExpectedMI: the plain triple loop over
// (row, column, nij) with every term computed in place. The explicit
// float64 conversion rounds the product before the addition, so the
// compiler cannot fuse it into an FMA that the memoized sum would not see.
func directExpectedMI(c *Contingency) float64 {
	n := c.n
	lgam := logFactorials(n + 1)
	logN := lgam[n]
	fn := float64(n)
	var emi float64
	for _, ai := range c.rows {
		for _, bj := range c.cols {
			lo := ai + bj - n
			if lo < 1 {
				lo = 1
			}
			hi := ai
			if bj < hi {
				hi = bj
			}
			for nij := lo; nij <= hi; nij++ {
				logP := lgam[ai] + lgam[bj] + lgam[n-ai] + lgam[n-bj] -
					logN - lgam[nij] - lgam[ai-nij] - lgam[bj-nij] - lgam[n-ai-bj+nij]
				info := math.Log(fn*float64(nij)/(float64(ai)*float64(bj))) * float64(nij) / fn
				emi += float64(info * math.Exp(logP))
			}
		}
	}
	return emi
}

// partition returns n labels whose cluster sizes are drawn by size(), in a
// shuffled order.
func partition(rng *rand.Rand, n int, size func() int) []int {
	out := make([]int, 0, n)
	for label := 0; len(out) < n; label++ {
		for k := max(size(), 1); k > 0 && len(out) < n; k-- {
			out = append(out, label)
		}
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestExpectedMIMatchesDirectSum: the memoized ExpectedMI must equal the
// direct triple loop bit for bit, over population sizes up to the paper's
// 2093 users and the partition shapes the study produces — all singletons,
// one giant cluster, 1×1 tables and skewed size mixes.
func TestExpectedMIMatchesDirectSum(t *testing.T) {
	rng := rand.New(rand.NewSource(2093))
	singletons := func() int { return 1 }
	giant := func(n int) func() int { return func() int { return n } }
	uniform := func(k int) func() int { return func() int { return 1 + rng.Intn(k) } }
	// skewed: mostly singletons and pairs, with a heavy tail of large
	// platform classes — the shape of a real fingerprint partition.
	skewed := func() int {
		if rng.Intn(10) == 0 {
			return 20 + rng.Intn(300)
		}
		return 1 + rng.Intn(2)
	}
	type shape struct {
		name string
		x, y func(n int) func() int
	}
	fixed := func(f func() int) func(int) func() int { return func(int) func() int { return f } }
	shapes := []shape{
		{"singletons×uniform", fixed(singletons), fixed(uniform(40))},
		{"giant×skewed", giant, fixed(skewed)},
		{"1×1", giant, giant},
		{"singletons×giant", fixed(singletons), giant},
		{"skewed×skewed", fixed(skewed), fixed(skewed)},
		{"uniform×skewed", fixed(uniform(8)), fixed(skewed)},
		{"uniform×uniform", fixed(uniform(300)), fixed(uniform(3))},
	}
	sizes := []int{1, 2, 3, 17, 256, 1000, 2093}
	for _, sh := range shapes {
		for _, n := range sizes {
			for trial := 0; trial < 2; trial++ {
				x := partition(rng, n, sh.x(n))
				y := partition(rng, n, sh.y(n))
				c, err := NewContingency(x, y)
				if err != nil {
					t.Fatal(err)
				}
				got, want := c.ExpectedMI(), directExpectedMI(c)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s n=%d (%d×%d): memoized E[MI] %v (%#x) != direct %v (%#x)",
						sh.name, n, len(c.rows), len(c.cols), got, math.Float64bits(got),
						want, math.Float64bits(want))
				}
			}
		}
	}
}

// TestExpectedMIEmptyMarginals: a dense table may carry unused labels
// (zero marginals); they contribute no terms, as in the direct sum.
func TestExpectedMIEmptyMarginals(t *testing.T) {
	c, err := NewContingencyDense([]int32{0, 0, 2, 2, 2}, []int32{1, 0, 1, 3, 3}, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, want := c.ExpectedMI(), directExpectedMI(c)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("E[MI] with empty marginals %v, direct %v", got, want)
	}
}
