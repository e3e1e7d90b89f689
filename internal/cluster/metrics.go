// Package cluster implements clustering-comparison metrics: mutual
// information, the Adjusted Mutual Information of Vinh, Epps & Bailey (ICML
// 2009) — the agreement score the paper uses throughout §3.3 and Fig. 9,
// chosen for its behaviour on imbalanced, small-cluster partitions — plus
// normalized MI and the Adjusted Rand Index for cross-checks.
package cluster

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// Contingency is the joint count table of two clusterings over the same
// items. Labels are arbitrary ints; only equality matters. The table is
// kept sparse: fingerprint partitions have hundreds of clusters per side
// but at most n non-zero cells, so a dense R×C matrix would be almost all
// zeros.
type Contingency struct {
	n    int    // number of items
	rows []int  // marginal counts of clustering U
	cols []int  // marginal counts of clustering V
	nz   []cell // non-zero cells in row-major order
}

// cell is one non-zero entry of the table: |U_i ∩ V_j| = n.
type cell struct {
	i, j, n int32
}

// NewContingency builds the table for label vectors x and y, which must
// have equal, non-zero length.
func NewContingency(x, y []int) (*Contingency, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("cluster: label lengths differ (%d vs %d)", len(x), len(y))
	}
	if len(x) == 0 {
		return nil, fmt.Errorf("cluster: empty clusterings")
	}
	xi := indexLabels(x)
	yi := indexLabels(y)
	xs := make([]int32, len(x))
	ys := make([]int32, len(y))
	for k := range x {
		xs[k], ys[k] = int32(xi[x[k]]), int32(yi[y[k]])
	}
	return newContingency(xs, ys, len(xi), len(yi)), nil
}

func indexLabels(labels []int) map[int]int {
	idx := make(map[int]int)
	for _, l := range labels {
		if _, ok := idx[l]; !ok {
			idx[l] = len(idx)
		}
	}
	return idx
}

// NewContingencyDense builds the table for dense label vectors: x takes
// values in [0, kx), y in [0, ky), with equal, non-zero lengths. It is the
// map-free fast path used by the study layer's interned label vectors
// (collate.IntGraph.Labels); when labels are canonicalized by first
// appearance it produces a table identical to NewContingency over the same
// partitions, so downstream MI/AMI values are bit-identical.
func NewContingencyDense(x, y []int32, kx, ky int) (*Contingency, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("cluster: label lengths differ (%d vs %d)", len(x), len(y))
	}
	if len(x) == 0 {
		return nil, fmt.Errorf("cluster: empty clusterings")
	}
	if kx <= 0 || ky <= 0 {
		return nil, fmt.Errorf("cluster: non-positive cluster counts (%d, %d)", kx, ky)
	}
	return newContingency(x, y, kx, ky), nil
}

// newContingency counts the table of dense labels x ∈ [0, kx), y ∈ [0, ky).
// It buckets the y labels by row (a counting sort on x), sorts each bucket
// and run-length encodes it, which yields the non-zero cells in row-major
// order in O(n log n) time and O(n + kx + ky) space.
func newContingency(x, y []int32, kx, ky int) *Contingency {
	c := &Contingency{
		n:    len(x),
		rows: make([]int, kx),
		cols: make([]int, ky),
	}
	for k := range x {
		c.rows[x[k]]++
		c.cols[y[k]]++
	}
	end := make([]int, kx) // end of row i's bucket once filled
	for i := 1; i < kx; i++ {
		end[i] = end[i-1] + c.rows[i-1]
	}
	byRow := make([]int32, len(y))
	for k := range x {
		byRow[end[x[k]]] = y[k]
		end[x[k]]++
	}
	cells, from := 0, 0
	for _, to := range end {
		b := byRow[from:to]
		from = to
		slices.Sort(b)
		for k := range b {
			if k == 0 || b[k] != b[k-1] {
				cells++
			}
		}
	}
	c.nz = make([]cell, 0, cells)
	from = 0
	for i, to := range end {
		b := byRow[from:to]
		from = to
		for len(b) > 0 {
			m := 1
			for m < len(b) && b[m] == b[0] {
				m++
			}
			c.nz = append(c.nz, cell{i: int32(i), j: b[0], n: int32(m)})
			b = b[m:]
		}
	}
	return c
}

// MI returns the mutual information between the two clusterings, in nats.
func (c *Contingency) MI() float64 {
	n := float64(c.n)
	var mi float64
	for _, e := range c.nz {
		pij := float64(e.n) / n
		mi += pij * math.Log(n*float64(e.n)/(float64(c.rows[e.i])*float64(c.cols[e.j])))
	}
	if mi < 0 { // guard against -0 from rounding
		mi = 0
	}
	return mi
}

// EntropyU returns the Shannon entropy (nats) of clustering U's marginal.
func (c *Contingency) EntropyU() float64 { return marginalEntropy(c.rows, c.n) }

// EntropyV returns the Shannon entropy (nats) of clustering V's marginal.
func (c *Contingency) EntropyV() float64 { return marginalEntropy(c.cols, c.n) }

func marginalEntropy(counts []int, n int) float64 {
	var h float64
	fn := float64(n)
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / fn
		h -= p * math.Log(p)
	}
	if h < 0 {
		h = 0
	}
	return h
}

// ExpectedMI returns E[MI] under the permutation (hypergeometric) model of
// Vinh et al., in nats. Complexity is O(R·C·n̄) over the contingency shape.
//
// A term depends on the cell only through its marginals (a, b) and nij, and
// real partitions repeat sizes (most clusters are singletons), so the terms
// of each (a, b) size-class pair that occurs more than once are computed
// once per call and replayed for every (row, column) pair of those sizes;
// a pair that occurs once is computed in place. Either way the terms are
// added in the original (row, column, nij) order, so the sum is
// bit-identical to the direct triple loop. The memo lives only for the
// call: the streaming engine asks again with a different n on every
// refresh.
func (c *Contingency) ExpectedMI() float64 {
	n := c.n
	lgam := logFactorials(n + 1)
	logN := lgam[n]
	fn := float64(n)
	rowClass, rowSizes, rowCount := sizeClasses(c.rows)
	colClass, colSizes, colCount := sizeClasses(c.cols)
	// Memoized pair k's terms are terms[span[k]:span[k+1]], in one exactly
	// sized slice; pairs seen once get an empty span.
	nc := len(colSizes)
	span := make([]int32, len(rowSizes)*nc+1)
	for ri, a := range rowSizes {
		for ci, b := range colSizes {
			k := ri*nc + ci
			span[k+1] = span[k]
			if rowCount[ri]*colCount[ci] > 1 {
				lo, hi := emiRange(a, b, n)
				span[k+1] += int32(max(hi-lo+1, 0))
			}
		}
	}
	terms := make([]float64, span[len(span)-1])
	for ri, ai := range rowSizes {
		for ci, bj := range colSizes {
			k := ri*nc + ci
			lo, _ := emiRange(ai, bj, n)
			ts := terms[span[k]:span[k+1]]
			for t := range ts {
				ts[t] = emiTerm(ai, bj, lo+t, n, fn, logN, lgam)
			}
		}
	}
	var emi float64
	for i, rc := range rowClass {
		for j, cc := range colClass {
			k := int(rc)*nc + int(cc)
			if rowCount[rc]*colCount[cc] > 1 {
				for _, t := range terms[span[k]:span[k+1]] {
					emi += t
				}
				continue
			}
			ai, bj := c.rows[i], c.cols[j]
			lo, hi := emiRange(ai, bj, n)
			for nij := lo; nij <= hi; nij++ {
				emi += emiTerm(ai, bj, nij, n, fn, logN, lgam)
			}
		}
	}
	return emi
}

// emiRange is the support of nij for marginals (a, b) over n items:
// [max(1, a+b−n), min(a, b)], empty when a or b is zero.
func emiRange(a, b, n int) (lo, hi int) {
	return max(a+b-n, 1), min(a, b)
}

// emiTerm is one E[MI] term, nij/n · log(n·nij / (a·b)) · P(nij | a, b, n).
// The explicit conversion rounds the product, so a caller's addition
// cannot fuse with it: memoized and in-place terms are the same float64.
func emiTerm(ai, bj, nij, n int, fn, logN float64, lgam []float64) float64 {
	logP := lgam[ai] + lgam[bj] + lgam[n-ai] + lgam[n-bj] -
		logN - lgam[nij] - lgam[ai-nij] - lgam[bj-nij] - lgam[n-ai-bj+nij]
	info := math.Log(fn*float64(nij)/(float64(ai)*float64(bj))) * float64(nij) / fn
	return float64(info * math.Exp(logP))
}

// sizeClasses maps each marginal count to a dense class index shared by
// equal counts (classes numbered by first appearance). It returns the class
// per entry, the distinct counts, and how many entries each class has.
func sizeClasses(counts []int) (class []int32, sizes, mult []int) {
	classOf := make([]int32, slices.Max(counts)+1)
	class = make([]int32, len(counts))
	for i, m := range counts {
		if classOf[m] == 0 {
			sizes = append(sizes, m)
			mult = append(mult, 0)
			classOf[m] = int32(len(sizes))
		}
		class[i] = classOf[m] - 1
		mult[class[i]]++
	}
	return class, sizes, mult
}

// logFactorials returns a read-only slice with lgam[k] = ln k! for k in
// [0, n]. The table is shared and grown on demand: every AMI call over the
// same population size reuses it instead of recomputing n logarithms, which
// matters when the agreement sweeps evaluate thousands of pairs. Entries
// are computed incrementally (lg[k] = lg[k-1] + ln k), so a longer table's
// prefix is bit-identical to a freshly built shorter one.
func logFactorials(n int) []float64 {
	lgamMu.RLock()
	lg := lgamTable
	lgamMu.RUnlock()
	if len(lg) > n {
		return lg[:n+1]
	}
	lgamMu.Lock()
	defer lgamMu.Unlock()
	for len(lgamTable) <= n {
		k := len(lgamTable)
		var prev float64
		if k >= 2 {
			prev = lgamTable[k-1] + math.Log(float64(k))
		}
		// Append never reuses the old backing array once it reallocates, so
		// slices returned earlier stay valid and immutable.
		lgamTable = append(lgamTable, prev)
	}
	return lgamTable[:n+1]
}

var (
	lgamMu    sync.RWMutex
	lgamTable []float64
)

// AMI returns the Adjusted Mutual Information of label vectors x and y with
// the arithmetic-mean normalizer:
//
//	AMI = (MI − E[MI]) / (½(H(U)+H(V)) − E[MI])
//
// Two identical trivial clusterings (a single cluster each, or every item a
// singleton in both) score 1 by convention.
func AMI(x, y []int) (float64, error) {
	c, err := NewContingency(x, y)
	if err != nil {
		return 0, err
	}
	return amiOf(c), nil
}

// AMIDense is AMI over dense label vectors (x in [0, kx), y in [0, ky)),
// skipping the label-indexing maps. With first-appearance-canonical labels
// the result is bit-identical to AMI over any relabeling of the same
// partitions.
func AMIDense(x, y []int32, kx, ky int) (float64, error) {
	c, err := NewContingencyDense(x, y, kx, ky)
	if err != nil {
		return 0, err
	}
	return amiOf(c), nil
}

func amiOf(c *Contingency) float64 {
	ru, rv := len(c.rows), len(c.cols)
	if (ru == 1 && rv == 1) || (ru == c.n && rv == c.n) {
		return 1
	}
	mi := c.MI()
	emi := c.ExpectedMI()
	h := (c.EntropyU() + c.EntropyV()) / 2
	den := h - emi
	const eps = 2.220446049250313e-16
	if math.Abs(den) < eps {
		den = math.Copysign(eps, den)
	}
	return (mi - emi) / den
}

// NMI returns the arithmetic-mean Normalized Mutual Information.
func NMI(x, y []int) (float64, error) {
	c, err := NewContingency(x, y)
	if err != nil {
		return 0, err
	}
	hu, hv := c.EntropyU(), c.EntropyV()
	if hu == 0 && hv == 0 {
		return 1, nil
	}
	den := (hu + hv) / 2
	if den == 0 {
		return 0, nil
	}
	return c.MI() / den, nil
}

// ARI returns the Adjusted Rand Index of x and y.
func ARI(x, y []int) (float64, error) {
	c, err := NewContingency(x, y)
	if err != nil {
		return 0, err
	}
	choose2 := func(k int) float64 { return float64(k) * float64(k-1) / 2 }
	var sumCells, sumRows, sumCols float64
	for _, e := range c.nz {
		sumCells += choose2(int(e.n))
	}
	for _, ai := range c.rows {
		sumRows += choose2(ai)
	}
	for _, bj := range c.cols {
		sumCols += choose2(bj)
	}
	total := choose2(c.n)
	expected := sumRows * sumCols / total
	maxIdx := (sumRows + sumCols) / 2
	if maxIdx == expected {
		return 1, nil // both partitions trivial in the same way
	}
	return (sumCells - expected) / (maxIdx - expected), nil
}

// PairwiseAMI computes the AMI between every pair in a set of label vectors
// (all over the same items), returning a symmetric matrix with unit
// diagonal — the structure behind the paper's Fig. 9 heatmap.
func PairwiseAMI(labelings [][]int) ([][]float64, error) {
	k := len(labelings)
	out := make([][]float64, k)
	for i := range out {
		out[i] = make([]float64, k)
		out[i][i] = 1
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			v, err := AMI(labelings[i], labelings[j])
			if err != nil {
				return nil, err
			}
			out[i][j] = v
			out[j][i] = v
		}
	}
	return out, nil
}
