package core

// The naive hill-climb evaluator: every trial recomputed from scratch,
// each of the paper's per-trial passes (localities, FindDimensions,
// AssignPoints, EvaluateClusters) written out literally. It is the
// reference the incremental engine must reproduce bit for bit; tests
// install it through runner.makeEval.

import (
	"context"
	"math"
	"sort"
	"sync"

	"proclus/internal/dataset"
	"proclus/internal/dist"
	"proclus/internal/obs"
	"proclus/internal/parallel"
)

// naiveEval recomputes every trial from scratch. Its trials are freshly
// allocated, so adopt is the identity.
type naiveEval struct{ r *runner }

func newNaiveEval(r *runner) evaluator { return naiveEval{r} }

func (e naiveEval) evaluate(medoids []int) *trialState { return e.r.evaluateMedoids(medoids) }
func (e naiveEval) adopt(t *trialState) *trialState    { return t }
func (e naiveEval) cacheHitRate() float64              { return 0 }

// runWithEval runs the engine as Run (resident non-nil) or RunStream
// (resident nil) do, with makeEval building every restart's evaluator.
func runWithEval(src PointSource, resident *dataset.Dataset, cfg Config,
	makeEval func(*runner) evaluator) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validateShape(src.Len(), src.Dims()); err != nil {
		return nil, err
	}
	r := newEngine(context.Background(), src, resident, cfg)
	r.makeEval = makeEval
	return r.run()
}

// runNaive is Run with the naive evaluator in every restart.
func runNaive(ds *dataset.Dataset, cfg Config) (*Result, error) {
	return runWithEval(dataset.NewMemorySource(ds, ds.Len()), ds, cfg, newNaiveEval)
}

// evaluateMedoids runs one hill-climbing trial: localities, dimensions,
// assignment and objective for the given medoid set.
func (r *runner) evaluateMedoids(medoids []int) *trialState {
	localities := r.computeLocalities(medoids)
	dims := r.findDimensions(medoids, localities)
	assign, sizes := r.assignPoints(medoids, dims)
	objective := r.evaluateClusters(assign, sizes, dims)
	return &trialState{
		medoids:   append([]int(nil), medoids...),
		dims:      dims,
		assign:    assign,
		sizes:     sizes,
		objective: objective,
	}
}

// computeLocalities returns, for each medoid, the indices of all points
// within δ_i of it, where δ_i is the full-space segmental distance to
// the nearest other medoid (paper §2.2, "Finding Dimensions"). The
// localities may overlap and need not cover the dataset; each contains
// at least its own medoid.
func (r *runner) computeLocalities(medoids []int) [][]int {
	k := len(medoids)
	delta := make([]float64, k)
	fullDims := int64(r.ds.Dims())
	for i := range medoids {
		delta[i] = math.Inf(1)
		for j := range medoids {
			if i == j {
				continue
			}
			if d := dist.SegmentalAll(r.ds.Point(medoids[i]), r.ds.Point(medoids[j])); d < delta[i] {
				delta[i] = d
			}
		}
	}
	pairs := int64(k) * int64(k-1)
	r.counters[obs.DistanceEvals].Add(pairs)
	r.counters[obs.CoordsVisited].Add(pairs * fullDims)
	// Sharded scan: each worker fills per-chunk lists, concatenated in
	// chunk order afterwards so the result is identical to a serial
	// scan. Strict inequality keeps the nearest other medoid (at
	// distance exactly δ_i) out of the locality.
	n := r.ds.Len()
	type chunk struct {
		lo    int
		lists [][]int
	}
	var mu sync.Mutex
	var chunks []chunk
	parallel.For(n, r.innerWorkers, func(lo, hi int) {
		lists := make([][]int, k)
		for p := lo; p < hi; p++ {
			pt := r.ds.Point(p)
			for i, m := range medoids {
				if dist.SegmentalAll(pt, r.ds.Point(m)) < delta[i] {
					lists[i] = append(lists[i], p)
				}
			}
		}
		evals := int64(hi-lo) * int64(k)
		r.counters[obs.DistanceEvals].Add(evals)
		r.counters[obs.CoordsVisited].Add(evals * fullDims)
		r.counters[obs.PointsScanned].Add(int64(hi - lo))
		mu.Lock()
		chunks = append(chunks, chunk{lo: lo, lists: lists})
		mu.Unlock()
	})
	sort.Slice(chunks, func(a, b int) bool { return chunks[a].lo < chunks[b].lo })
	localities := make([][]int, k)
	for _, c := range chunks {
		for i := range localities {
			localities[i] = append(localities[i], c.lists[i]...)
		}
	}
	return localities
}

// assignPoints assigns every point to the medoid of minimum segmental
// distance relative to that medoid's dimension set (paper Figure 5)
// through the production assignment chunk, returning the per-point
// cluster index and the cluster sizes.
func (r *runner) assignPoints(medoids []int, dims [][]int) (assign []int, sizes []int) {
	medoidPoints := make([][]float64, len(medoids))
	for i, m := range medoids {
		medoidPoints[i] = r.ds.Point(m)
	}
	assign = make([]int, r.ds.Len())
	sizes = make([]int, len(medoids))
	metric := r.pointMetric()
	parallel.For(r.ds.Len(), r.innerWorkers, func(lo, hi int) {
		r.assignChunk(medoidPoints, dims, metric, assign, lo, hi)
	})
	tallySizes(assign, sizes)
	return assign, sizes
}

// evaluateClusters is evaluateClustersInto with freshly allocated
// buffers.
func (r *runner) evaluateClusters(assign []int, sizes []int, dims [][]int) float64 {
	k := len(sizes)
	centroids := make([][]float64, k)
	for i := range centroids {
		centroids[i] = make([]float64, r.ds.Dims())
	}
	return r.evaluateClustersInto(assign, sizes, dims, centroids, make([]float64, k))
}
