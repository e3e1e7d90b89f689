package cluster

import "math"

// Additional clustering-comparison measures beyond AMI: the paper's cited
// methodology literature (Vinh et al. 2009, Romano et al. 2016) evaluates
// agreement metrics side by side; these let users of this library do the
// same on fingerprint clusterings.

// VI returns the Variation of Information (Meilă) between two clusterings,
// in nats: VI = H(U) + H(V) − 2·MI. It is a metric (0 = identical
// partitions; larger = more disagreement).
func VI(x, y []int) (float64, error) {
	c, err := NewContingency(x, y)
	if err != nil {
		return 0, err
	}
	vi := c.EntropyU() + c.EntropyV() - 2*c.MI()
	if vi < 0 {
		vi = 0 // guard rounding
	}
	return vi, nil
}

// NVI returns VI normalized by log(n), mapping it into [0, 1].
func NVI(x, y []int) (float64, error) {
	vi, err := VI(x, y)
	if err != nil {
		return 0, err
	}
	n := float64(len(x))
	if n <= 1 {
		return 0, nil
	}
	return vi / math.Log(n), nil
}

// FowlkesMallows returns the Fowlkes–Mallows index: the geometric mean of
// pairwise precision and recall over co-clustered item pairs.
func FowlkesMallows(x, y []int) (float64, error) {
	c, err := NewContingency(x, y)
	if err != nil {
		return 0, err
	}
	choose2 := func(k int) float64 { return float64(k) * float64(k-1) / 2 }
	var tp, pairsU, pairsV float64
	for _, e := range c.nz {
		tp += choose2(int(e.n))
	}
	for _, ai := range c.rows {
		pairsU += choose2(ai)
	}
	for _, bj := range c.cols {
		pairsV += choose2(bj)
	}
	if pairsU == 0 || pairsV == 0 {
		// One side has no co-clustered pairs (all singletons): perfect
		// agreement iff the other side has none either.
		if pairsU == pairsV {
			return 1, nil
		}
		return 0, nil
	}
	return tp / math.Sqrt(pairsU*pairsV), nil
}

// HomogeneityCompleteness returns Rosenberg–Hirschberg's homogeneity h
// (every cluster of V contains members of a single class of U) and
// completeness c (every class of U is assigned to a single cluster of V),
// plus their harmonic mean, the V-measure.
func HomogeneityCompleteness(classes, clusters []int) (h, c, vmeasure float64, err error) {
	ct, err := NewContingency(classes, clusters)
	if err != nil {
		return 0, 0, 0, err
	}
	hu, hv := ct.EntropyU(), ct.EntropyV()
	mi := ct.MI()
	if hu == 0 {
		h = 1
	} else {
		h = mi / hu
	}
	if hv == 0 {
		c = 1
	} else {
		c = mi / hv
	}
	// Note the convention: homogeneity conditions the class distribution on
	// clusters (1 − H(U|V)/H(U) = MI/H(U)); completeness is symmetric.
	if h+c == 0 {
		return h, c, 0, nil
	}
	vmeasure = 2 * h * c / (h + c)
	return h, c, vmeasure, nil
}
