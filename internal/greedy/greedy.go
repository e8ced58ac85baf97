// Package greedy implements the farthest-first traversal of Gonzalez
// (1985), which the PROCLUS initialization phase uses (paper Figure 3)
// to thin a random sample down to a candidate medoid set in which points
// are mutually well separated.
package greedy

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"proclus/internal/parallel"
	"proclus/internal/randx"
)

// DistanceTo computes the distance from the candidate item at index i to
// the item at index j. Implementations are supplied by the caller so the
// traversal is agnostic to the point representation and metric.
type DistanceTo func(i, j int) float64

// FarthestFirst selects k indices from [0, n) by farthest-first
// traversal: the first pick is uniform at random, and every subsequent
// pick maximizes the minimum distance to the picks so far. It returns
// the picks in selection order.
//
// Complexity is O(n·k) distance evaluations with O(n) auxiliary space,
// matching Figure 3 of the paper: after each pick the per-item distance
// to the closest chosen medoid is folded into a running minimum.
func FarthestFirst(r *randx.Rand, n, k int, d DistanceTo) ([]int, error) {
	return FarthestFirstParallel(r, n, k, 1, d)
}

// FarthestFirstParallel is FarthestFirst with the O(n) inner passes —
// the distance-fold after each pick and the arg-max scan for the next
// pick — sharded over up to workers goroutines. d must therefore be
// safe for concurrent calls. The picks are identical to the serial
// traversal for every worker count: shards fold and scan disjoint index
// ranges, the per-item minima involve no accumulation (only pairwise
// min), and the shard-wise arg-max reduction breaks ties toward the
// lower index exactly as the serial scan does. workers < 1 selects
// GOMAXPROCS.
func FarthestFirstParallel(r *randx.Rand, n, k, workers int, d DistanceTo) ([]int, error) {
	return FarthestFirstCounted(r, n, k, workers, d, nil)
}

// FarthestFirstCounted is FarthestFirstParallel with batched
// distance-evaluation accounting: each shard tallies its evaluations
// locally and credits evals once per chunk, so the traversal pays one
// atomic add per O(n/workers) distances instead of one per distance.
// The totals are chunking-independent — which items get folded depends
// only on the picks, and the picks are worker-count invariant — so the
// recorded count is identical to per-call counting. A nil evals
// disables accounting.
func FarthestFirstCounted(r *randx.Rand, n, k, workers int, d DistanceTo, evals *atomic.Int64) ([]int, error) {
	if k <= 0 {
		return nil, fmt.Errorf("greedy: k = %d must be positive", k)
	}
	if k > n {
		return nil, fmt.Errorf("greedy: cannot choose %d of %d items", k, n)
	}
	picks := make([]int, 0, k)
	first := r.Intn(n)
	picks = append(picks, first)

	minDist := make([]float64, n)
	parallel.For(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			minDist[i] = d(i, first)
		}
		if evals != nil {
			evals.Add(int64(hi - lo))
		}
	})

	chosen := make([]bool, n)
	chosen[first] = true

	// Each arg-max pass collects one candidate per shard; reducing them
	// in ascending shard order with a strict comparison keeps the lowest
	// index among equal maxima, matching the serial traversal's
	// tie-break.
	type shardBest struct {
		lo, idx int
		dist    float64
	}
	var mu sync.Mutex
	for len(picks) < k {
		var shards []shardBest
		parallel.For(n, workers, func(lo, hi int) {
			best, bestDist := -1, -1.0
			for i := lo; i < hi; i++ {
				if !chosen[i] && minDist[i] > bestDist {
					best, bestDist = i, minDist[i]
				}
			}
			mu.Lock()
			shards = append(shards, shardBest{lo: lo, idx: best, dist: bestDist})
			mu.Unlock()
		})
		sort.Slice(shards, func(a, b int) bool { return shards[a].lo < shards[b].lo })
		best, bestDist := -1, -1.0
		for _, sb := range shards {
			if sb.idx >= 0 && sb.dist > bestDist {
				best, bestDist = sb.idx, sb.dist
			}
		}
		if best < 0 {
			// Unreachable while k <= n, but keep the invariant explicit.
			return nil, fmt.Errorf("greedy: no remaining candidates at pick %d", len(picks))
		}
		picks = append(picks, best)
		chosen[best] = true
		pick := best
		parallel.For(n, workers, func(lo, hi int) {
			var folded int64
			for i := lo; i < hi; i++ {
				if chosen[i] {
					continue
				}
				if nd := d(i, pick); nd < minDist[i] {
					minDist[i] = nd
				}
				folded++
			}
			if evals != nil {
				evals.Add(folded)
			}
		})
	}
	return picks, nil
}
