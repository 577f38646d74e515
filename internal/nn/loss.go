package nn

import (
	"math"
	"slices"
)

// LambdaRankLoss implements the listwise LambdaRank objective the paper
// trains PaCM with: pairwise logistic loss between items of one task,
// weighted by the |ΔNDCG| of swapping the pair. scores is (N x 1) and must
// require gradients; rel holds the relevance labels (higher = better, the
// normalised throughput of the schedule).
//
// The returned scalar tensor carries an exact custom backward: the
// standard lambda gradients are injected into scores.Grad. With no pair of
// distinct relevances — a single item, say — the loss is +0 and every
// gradient +0. Its working buffers live on the scores' arena.
func LambdaRankLoss(scores *Tensor, rel []float64) *Tensor {
	if scores.C != 1 || scores.R != len(rel) {
		panic("nn: LambdaRankLoss shape mismatch")
	}
	n := len(rel)
	s, grad := opArena(scores, nil, nil)

	// Ideal DCG from relevance-sorted order; gains are the (non-negative)
	// relevances themselves. Tied scores make the rank positions depend on
	// how the sort breaks ties: slices.SortFunc is the pdqsort sort.Slice
	// runs, and descending's comparator is negative exactly when the old
	// less was true, so the permutation is the same
	// (TestRankSortsMatchSortSlice).
	idx := identityInts(s, n)
	slices.SortFunc(idx, descending(rel).cmp)
	// rank positions by current score order
	order := identityInts(s, n)
	slices.SortFunc(order, descending(scores.Data).cmp)
	rank := s.Ints(n)
	for pos, item := range order {
		rank[item] = pos
	}
	var idcg float64
	for pos, item := range idx {
		idcg += rel[item] / math.Log2(float64(pos)+2)
	}
	if idcg <= 0 {
		idcg = 1
	}

	lambdas := s.floats(n)
	var lossVal float64
	var pairs float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rel[i] <= rel[j] {
				continue // only pairs where i should rank above j
			}
			sdiff := scores.Data[i*scores.C] - scores.Data[j*scores.C]
			// |ΔNDCG| of swapping i and j in the current ranking.
			di := 1 / math.Log2(float64(rank[i])+2)
			dj := 1 / math.Log2(float64(rank[j])+2)
			deltaN := math.Abs((rel[i]-rel[j])*(di-dj)) / idcg
			// logistic pairwise loss log(1+exp(-sdiff))
			var l float64
			if sdiff > 30 {
				l = 0
			} else if sdiff < -30 {
				l = -sdiff
			} else {
				l = math.Log1p(math.Exp(-sdiff))
			}
			lossVal += deltaN * l
			lambda := -deltaN / (1 + math.Exp(sdiff))
			lambdas[i] += lambda
			lambdas[j] -= lambda
			pairs++
		}
	}
	if pairs == 0 {
		pairs = 1
	}

	out := s.tensor(1, 1)
	out.Data[0] = lossVal / pairs
	return out.link(grad, node{op: opLambdaRank, a: scores, saved: lambdas, k: pairs})
}

// descending orders indices by key, largest first.
type descending []float64

// cmp is negative exactly when key[a] > key[b] — sort.Slice's less for a
// descending sort — and zero on ties and NaNs, which that less leaves
// unordered too.
func (key descending) cmp(a, b int) int {
	switch {
	case key[a] > key[b]:
		return -1
	case key[a] < key[b]:
		return 1
	}
	return 0
}
