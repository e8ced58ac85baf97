package core

// Incremental hill-climb evaluation. The iterative phase (§2.2, Figure
// 2) replaces only the bad medoids between iterations, so most of each
// trial's full-dimensional distance work repeats the previous trial's.
// This file exploits that structure: a per-restart point×medoid
// distance cache recomputes only the columns of swapped medoids, and a
// per-restart trial scratch reuses every evaluation buffer, so a
// steady-state iteration performs O(N·|bad|) full-dimensional distance
// evaluations — instead of O(N·k) — and allocates nothing.
//
// The engine is bit-identical to naive from-scratch evaluation, the
// reference kept in the tests: every cached value is the exact float64
// the naive pass would recompute (SegmentalAll is bitwise symmetric and
// the cache stores it verbatim), every pass preserves the naive
// accumulation and tie-break order, and all randomness flows through
// the unchanged climb loop. Only the distance-evaluation and cache
// counters differ from the reference.

import (
	"math"
	"time"

	"proclus/internal/alloc"
	"proclus/internal/dist"
	"proclus/internal/obs"
	"proclus/internal/parallel"
)

// evaluator is the hill climb's trial engine. evaluate scores one
// medoid set; the returned trial may alias engine-owned scratch and is
// valid only until the next evaluate. adopt snapshots a trial the
// climb wants to keep as its best, returning a state that survives
// later evaluations.
type evaluator interface {
	evaluate(medoids []int) *trialState
	adopt(t *trialState) *trialState
	// cacheHitRate reports the fraction of distance columns the latest
	// evaluate served from its cache (0 for engines without one).
	cacheHitRate() float64
}

// newEvaluator builds one restart's trial engine: the incremental
// engine, unless a test installed another through r.makeEval. Each
// climb (restart) constructs its own, so engines never share state
// across goroutines.
func (r *runner) newEvaluator() evaluator {
	if r.makeEval != nil {
		return r.makeEval(r)
	}
	return newIncrementalEval(r)
}

// incrementalEval owns one restart's distance cache and trial scratch.
type incrementalEval struct {
	r       *runner
	n, k, d int

	// flat is the point×medoid distance matrix, N×k column-major:
	// column i occupies flat[i·N : (i+1)·N] and holds the
	// full-dimensional segmental distance of every point to the medoid
	// currently at position i. cols are the per-column views.
	flat []float64
	cols [][]float64
	// colMedoid records the dataset index each column is populated for
	// (-1 = never populated). A column is recomputed only when the
	// medoid at its position changes — the swap structure of the hill
	// climb makes that |bad| columns per iteration.
	colMedoid []int
	changed   []int // positions recomputed by the current sync

	// trialScratch: every buffer an evaluation pass writes, reused
	// across iterations.
	scratch trialScratch

	metric func(pt, medoid []float64, dims []int) float64

	// The parallel passes' chunk closures, built once at construction.
	// Each captures only the evaluator — per-trial inputs travel through
	// e.cur and e.changed — so evaluate never allocates a closure.
	fillFn   func(lo, hi int)
	deltaFn  func(lo, hi int)
	scanFn   func(lo, hi int)
	zrowFn   func(lo, hi int)
	assignFn func(lo, hi int)

	// cur is the trial view handed to the climb; it aliases scratch and
	// is overwritten by the next evaluate. best is the adopt target,
	// deep-copied so it survives subsequent iterations.
	cur  trialState
	best trialState
}

// trialScratch is the reusable buffer set of one restart's evaluation
// passes: localities, z-score rows, dimension picking, assignment,
// sizes, centroids and deviations. All buffers are sized once at
// construction; list buffers keep their capacity across iterations.
type trialScratch struct {
	medoidPts  [][]float64 // k point views, by position
	delta      []float64   // k locality radii δ_i
	localities [][]int     // k member lists, capacity reused
	x          [][]float64 // k zRow accumulation rows of d
	z          [][]float64 // k standardized Z rows of d
	picker     alloc.Picker
	assign     []int       // n
	sizes      []int       // k
	centroids  [][]float64 // k rows of d
	devs       []float64   // k
}

func newIncrementalEval(r *runner) *incrementalEval {
	n, k, d := r.ds.Len(), r.cfg.K, r.ds.Dims()
	e := &incrementalEval{
		r: r, n: n, k: k, d: d,
		flat:      make([]float64, n*k),
		cols:      make([][]float64, k),
		colMedoid: make([]int, k),
		changed:   make([]int, 0, k),
		metric:    r.pointMetric(),
	}
	for i := range e.cols {
		e.cols[i] = e.flat[i*n : (i+1)*n]
		e.colMedoid[i] = -1
	}
	s := &e.scratch
	s.medoidPts = make([][]float64, k)
	s.delta = make([]float64, k)
	s.localities = make([][]int, k)
	zx := make([]float64, 2*k*d)
	s.x = make([][]float64, k)
	s.z = make([][]float64, k)
	for i := 0; i < k; i++ {
		s.x[i] = zx[2*i*d : (2*i+1)*d]
		s.z[i] = zx[(2*i+1)*d : (2*i+2)*d]
	}
	s.assign = make([]int, n)
	s.sizes = make([]int, k)
	cf := make([]float64, k*d)
	s.centroids = make([][]float64, k)
	for i := 0; i < k; i++ {
		s.centroids[i] = cf[i*d : (i+1)*d]
	}
	s.devs = make([]float64, k)

	// One pass over the points, filling every invalidated column: each
	// point row is read once however many medoids moved. Writes are
	// disjoint per point, so results are identical for any worker count.
	e.fillFn = func(lo, hi int) {
		for p := lo; p < hi; p++ {
			pt := e.r.ds.Point(p)
			for _, c := range e.changed {
				e.cols[c][p] = dist.SegmentalAll(pt, s.medoidPts[c])
			}
		}
	}
	e.deltaFn = func(lo, hi int) {
		m := e.cur.medoids
		for i := lo; i < hi; i++ {
			s.delta[i] = math.Inf(1)
			for j := range m {
				if i == j {
					continue
				}
				if d := e.cols[j][m[i]]; d < s.delta[i] {
					s.delta[i] = d
				}
			}
		}
	}
	// Column scans parallelize over medoids (disjoint lists, ascending
	// point order) rather than over points: with the distances cached
	// this pass is a compare-and-append sweep, too cheap to justify the
	// reference's per-chunk list merging.
	e.scanFn = func(lo, hi int) {
		for i := lo; i < hi; i++ {
			lst := s.localities[i][:0]
			col := e.cols[i]
			di := s.delta[i]
			for p := 0; p < e.n; p++ {
				if col[p] < di {
					lst = append(lst, p)
				}
			}
			s.localities[i] = lst
		}
	}
	e.zrowFn = func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e.r.zRowInto(e.cur.medoids[i], s.localities[i], s.x[i], s.z[i])
		}
	}
	e.assignFn = func(lo, hi int) {
		e.r.assignChunk(s.medoidPts, e.cur.dims, e.metric, s.assign, lo, hi)
	}
	return e
}

// evaluate runs one hill-climbing trial against the cache: column
// sync, localities, dimensions, assignment and objective. The returned
// trial aliases the engine's scratch. Per-trial inputs are staged in
// e.cur up front so the prebuilt chunk closures can read them.
func (e *incrementalEval) evaluate(medoids []int) *trialState {
	t := &e.cur
	t.medoids = append(t.medoids[:0], medoids...)
	e.sync(t.medoids)
	e.localities()
	t.dims = e.findDimensions()
	passStart := time.Now()
	parallel.For(e.n, e.r.innerWorkers, e.assignFn)
	// One Rate observation per pass (two clock reads), far below the
	// assignment path's ~2% overhead budget.
	e.r.metrics.observeAssign(int64(e.n), time.Since(passStart).Seconds())
	tallySizes(e.scratch.assign, e.scratch.sizes)
	t.objective = e.r.evaluateClustersInto(e.scratch.assign, e.scratch.sizes, t.dims,
		e.scratch.centroids, e.scratch.devs)
	t.assign = e.scratch.assign
	t.sizes = e.scratch.sizes
	t.badMedoids = nil
	return t
}

// sync recomputes the cache columns whose medoid changed since the
// previous trial — all k on the first call, |bad| afterwards — and
// credits the cache counters. DistCacheHits counts the entries the
// trial serves from cache rather than recomputing (the unchanged
// columns' N entries plus the k·(k−1) medoid-to-medoid reads served
// below), DistCacheRecomputes the evaluations actually performed here.
func (e *incrementalEval) sync(medoids []int) {
	e.changed = e.changed[:0]
	for i, m := range medoids {
		if e.colMedoid[i] != m {
			e.colMedoid[i] = m
			e.scratch.medoidPts[i] = e.r.ds.Point(m)
			e.changed = append(e.changed, i)
		}
	}
	if len(e.changed) > 0 {
		parallel.For(e.n, e.r.innerWorkers, e.fillFn)
	}
	recomputed := int64(len(e.changed)) * int64(e.n)
	e.r.counters[obs.DistanceEvals].Add(recomputed)
	e.r.counters[obs.CoordsVisited].Add(recomputed * int64(e.d))
	e.r.counters[obs.DistCacheRecomputes].Add(recomputed)
	e.r.counters[obs.DistCacheHits].Add(int64(e.k-len(e.changed))*int64(e.n) + int64(e.k)*int64(e.k-1))
}

// localities fills the scratch locality lists from the cache: δ_i is
// the minimum over the other medoids' columns evaluated at medoid i's
// dataset row, and medoid i's locality is every point whose column-i
// entry is strictly below δ_i — the same values, scan order and strict
// inequality as the reference computeLocalities, hence identical lists.
// Reads the current trial's medoids from e.cur.
func (e *incrementalEval) localities() {
	parallel.For(e.k, e.r.innerWorkers, e.deltaFn)
	parallel.For(e.k, e.r.innerWorkers, e.scanFn)
	e.r.counters[obs.PointsScanned].Add(int64(e.n))
}

// findDimensions is the scratch-backed FindDimensions (paper Figure
// 4): z rows into reused buffers, dimension budget via the reused
// picker. The returned rows alias the picker and are valid until the
// next call. Reads the current trial's medoids from e.cur.
func (e *incrementalEval) findDimensions() [][]int {
	s := &e.scratch
	parallel.For(e.k, e.r.innerWorkers, e.zrowFn)
	dims, err := s.picker.PickSmallest(s.z, e.r.cfg.K*e.r.cfg.L, 2)
	if err != nil {
		// Unreachable for validated configs, exactly as in
		// findDimensions.
		panic("proclus: dimension allocation failed: " + err.Error())
	}
	return dims
}

// cacheHitRate reports the fraction of the k distance columns the
// latest sync reused rather than recomputed: 0 on the first trial
// (every column fills), (k−|bad|)/k in steady state.
func (e *incrementalEval) cacheHitRate() float64 {
	if e.k == 0 {
		return 0
	}
	return float64(e.k-len(e.changed)) / float64(e.k)
}

// adopt deep-copies a trial into the engine's persistent best state:
// the climb's best must survive scratch reuse by later iterations. The
// copy runs only on improvements, so steady-state iterations stay
// allocation-free once the buffers have grown.
func (e *incrementalEval) adopt(t *trialState) *trialState {
	b := &e.best
	b.medoids = append(b.medoids[:0], t.medoids...)
	b.assign = append(b.assign[:0], t.assign...)
	b.sizes = append(b.sizes[:0], t.sizes...)
	if b.dims == nil {
		// k is fixed for the whole restart, so one row set suffices.
		b.dims = make([][]int, len(t.dims))
	}
	for i, row := range t.dims {
		b.dims[i] = append(b.dims[i][:0], row...)
	}
	b.objective = t.objective
	b.badMedoids = nil
	return b
}
