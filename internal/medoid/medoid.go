// Package medoid implements a full-dimensional K-Medoids clusterer in
// the style of CLARANS (Ng & Han, VLDB 1994), the algorithm whose hill
// climbing PROCLUS generalizes (paper §2). It serves two purposes here:
// as the full-dimensional baseline motivating projected clustering
// (§1, Figure 1 — full-dimensional methods cannot separate clusters
// that exist in different subspaces), and as an ablation reference for
// the benchmark harness.
package medoid

import (
	"fmt"
	"math"

	"proclus/internal/dataset"
	"proclus/internal/dist"
	"proclus/internal/obs"
	"proclus/internal/randx"
	"proclus/internal/sample"
)

// Config parameterizes a CLARANS-style run.
type Config struct {
	// K is the number of clusters. Required.
	K int
	// MaxNeighbors is the number of random swap attempts examined from
	// the current node before declaring it a local minimum. Default 50.
	MaxNeighbors int
	// Restarts is the number of independent local searches; the best
	// local minimum wins. Default 2 (the CLARANS paper's numlocal).
	Restarts int
	// Distance is the full-dimensional metric; default Manhattan
	// segmental (Manhattan / d), matching PROCLUS's scale.
	Distance dist.Func
	// Seed drives all randomness.
	Seed uint64
}

func (cfg Config) withDefaults() Config {
	if cfg.MaxNeighbors == 0 {
		cfg.MaxNeighbors = 50
	}
	if cfg.Restarts == 0 {
		cfg.Restarts = 2
	}
	if cfg.Distance == nil {
		cfg.Distance = dist.SegmentalAll
	}
	return cfg
}

// Result is a full-dimensional clustering.
type Result struct {
	// Medoids holds the dataset indices of the k medoids.
	Medoids []int
	// Assignments maps each point to its cluster (index into Medoids).
	Assignments []int
	// Cost is the sum over points of the distance to their medoid.
	Cost float64
	// Stats carries the run's work counters, aggregated over every
	// restart and swap trial (including trials that were rejected). The
	// pass is serial, so the tallies are exact; every evaluation counts
	// d coordinates.
	Stats Stats
}

// Stats records a run's measurable work.
type Stats struct {
	Counters obs.Snapshot
}

// Run clusters ds into cfg.K full-dimensional clusters.
func Run(ds *dataset.Dataset, cfg Config) (*Result, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if cfg.K <= 0 {
		return nil, fmt.Errorf("medoid: K = %d must be positive", cfg.K)
	}
	if ds.Len() < cfg.K {
		return nil, fmt.Errorf("medoid: %d points cannot form %d clusters", ds.Len(), cfg.K)
	}
	rng := randx.New(cfg.Seed)
	var counters obs.Counters
	var best *Result
	for restart := 0; restart < cfg.Restarts; restart++ {
		res, err := localSearch(ds, cfg, rng, &counters)
		if err != nil {
			return nil, err
		}
		if best == nil || res.Cost < best.Cost {
			best = res
		}
	}
	best.Stats = Stats{Counters: counters.Snapshot()}
	return best, nil
}

// localSearch runs one CLARANS descent: start from random medoids and
// follow improving random swaps until MaxNeighbors successive attempts
// fail.
func localSearch(ds *dataset.Dataset, cfg Config, rng *randx.Rand, counters *obs.Counters) (*Result, error) {
	n := ds.Len()
	medoids, err := sample.WithoutReplacement(rng, n, cfg.K)
	if err != nil {
		return nil, fmt.Errorf("medoid: initial medoids: %w", err)
	}
	assign, cost := assignAll(ds, cfg.Distance, medoids, counters)
	inSet := make(map[int]bool, cfg.K)
	for _, m := range medoids {
		inSet[m] = true
	}
	failures := 0
	for failures < cfg.MaxNeighbors {
		// Random neighbour: swap one random medoid for a random
		// non-medoid.
		pos := rng.Intn(cfg.K)
		cand := rng.Intn(n)
		if inSet[cand] {
			failures++
			continue
		}
		old := medoids[pos]
		medoids[pos] = cand
		newAssign, newCost := assignAll(ds, cfg.Distance, medoids, counters)
		if newCost < cost {
			delete(inSet, old)
			inSet[cand] = true
			assign, cost = newAssign, newCost
			failures = 0
		} else {
			medoids[pos] = old
			failures++
		}
	}
	return &Result{Medoids: medoids, Assignments: assign, Cost: cost}, nil
}

// assignAll assigns every point to its nearest medoid and returns the
// assignment and total cost. Ties break toward the lower medoid
// position for determinism.
func assignAll(ds *dataset.Dataset, d dist.Func, medoids []int, counters *obs.Counters) ([]int, float64) {
	assign := make([]int, ds.Len())
	var cost float64
	medoidPts := make([][]float64, len(medoids))
	for i, m := range medoids {
		medoidPts[i] = ds.Point(m)
	}
	ds.Each(func(p int, pt []float64) {
		bestIdx, bestDist := 0, math.Inf(1)
		for i := range medoidPts {
			if dd := d(pt, medoidPts[i]); dd < bestDist {
				bestIdx, bestDist = i, dd
			}
		}
		assign[p] = bestIdx
		cost += bestDist
	})
	// Every evaluation walks every coordinate: n·k evaluations of d
	// coordinates each, batched in one add per pass.
	n, k, dims := int64(ds.Len()), int64(len(medoids)), int64(ds.Dims())
	counters[obs.PointsScanned].Add(n)
	counters[obs.DistanceEvals].Add(n * k)
	counters[obs.CoordsVisited].Add(n * k * dims)
	return assign, cost
}
