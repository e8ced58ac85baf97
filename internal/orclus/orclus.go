// Package orclus implements generalized projected clustering with
// arbitrarily oriented subspaces — the extension the PROCLUS paper's
// conclusions name as future work, published by two of its authors as
// ORCLUS ("Finding Generalized Projected Clusters in High Dimensional
// Spaces", Aggarwal & Yu, SIGMOD 2000).
//
// Where PROCLUS associates each cluster with a subset of the original
// axes, ORCLUS associates each cluster with an arbitrary orthonormal
// basis of dimensionality l: the eigenvectors of the cluster's
// covariance matrix with the *smallest* eigenvalues, i.e. the directions
// along which the cluster's points spread least. The algorithm runs an
// agglomerative k-means-style loop: start with k0 ≫ k seeds in the full
// space, repeatedly (1) assign points to the seed of smallest projected
// distance, (2) recompute each cluster's subspace from its covariance,
// (3) merge the cluster pairs of least unified projected energy, while
// gradually shrinking both the cluster count toward k and the subspace
// dimensionality toward l.
package orclus

import (
	"fmt"
	"math"
	"time"

	"proclus/internal/dataset"
	"proclus/internal/linalg"
	"proclus/internal/obs"
	"proclus/internal/parallel"
	"proclus/internal/randx"
	"proclus/internal/sample"
)

// Config holds the ORCLUS parameters.
type Config struct {
	// K is the number of clusters to find. Required.
	K int
	// L is the dimensionality of each cluster's subspace. Required;
	// 1 ≤ L ≤ dims.
	L int
	// K0Factor sets the initial seed count k0 = K0Factor·K. Default 5.
	K0Factor int
	// Alpha is the per-phase cluster-count reduction factor in (0, 1).
	// Default 0.5.
	Alpha float64
	// HandleOutliers, when set, flags points outside every cluster's
	// sphere of influence as outliers (assignment OutlierID), mirroring
	// the PROCLUS refinement-phase rule in projected space: Δ_i is the
	// smallest projected distance from centroid i to any other
	// centroid, and a point is an outlier iff it exceeds Δ_i for every
	// cluster i.
	HandleOutliers bool
	// Workers bounds the goroutines the assignment passes may use;
	// values below 1 select GOMAXPROCS. Results are identical for any
	// value: each point's nearest seed is a pure function of the point,
	// and the member lists are rebuilt serially in ascending point
	// order afterwards.
	Workers int
	// Seed drives all randomness.
	Seed uint64
}

// OutlierID marks points assigned to no cluster when HandleOutliers is
// set.
const OutlierID = -1

func (cfg Config) withDefaults() Config {
	if cfg.K0Factor == 0 {
		cfg.K0Factor = 5
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 0.5
	}
	return cfg
}

func (cfg Config) validate(ds *dataset.Dataset) error {
	switch {
	case cfg.K <= 0:
		return fmt.Errorf("orclus: K = %d must be positive", cfg.K)
	case cfg.L < 1 || cfg.L > ds.Dims():
		return fmt.Errorf("orclus: L = %d outside [1, %d]", cfg.L, ds.Dims())
	case cfg.K0Factor < 1:
		return fmt.Errorf("orclus: K0Factor = %d must be positive", cfg.K0Factor)
	case cfg.Alpha <= 0 || cfg.Alpha >= 1:
		return fmt.Errorf("orclus: Alpha = %v outside (0, 1)", cfg.Alpha)
	case ds.Len() < cfg.K:
		return fmt.Errorf("orclus: %d points cannot form %d clusters", ds.Len(), cfg.K)
	}
	return nil
}

// Cluster is one generalized projected cluster.
type Cluster struct {
	// Centroid is the cluster center.
	Centroid []float64
	// Basis holds the L orthonormal vectors spanning the cluster's
	// subspace (least-spread directions).
	Basis [][]float64
	// Members holds the dataset indices assigned to the cluster.
	Members []int
	// Energy is the mean squared projected distance of members to the
	// centroid within Basis (the cluster's projected energy).
	Energy float64
}

// Result is the output of an ORCLUS run.
type Result struct {
	Clusters    []Cluster
	Assignments []int
	// TotalEnergy is the size-weighted mean of the cluster energies,
	// the objective ORCLUS minimizes.
	TotalEnergy float64
	// Seed is the effective random seed the run used.
	Seed uint64
	// Config echoes the effective configuration, defaults applied.
	Config ConfigReport
	// Stats carries the run's work counters and dataset shape.
	Stats Stats
}

// Stats records an ORCLUS run's measurable work, mirroring the core
// package's Stats so registry-level goldens can pin ORCLUS work the
// same way they pin PROCLUS work.
type Stats struct {
	// Counters snapshots the full-dataset passes' work: every projected
	// distance in the assignment and outlier passes is a
	// distance_evals evaluation, and coords_visited counts the |basis|·d coordinates each
	// evaluation touched. Totals are identical for every worker count.
	Counters obs.Snapshot
	// DatasetPoints and DatasetDims record the input shape.
	DatasetPoints int
	DatasetDims   int
	// TotalDuration is the wall time of the whole run.
	TotalDuration time.Duration
}

// state is one working cluster during the agglomerative loop.
type state struct {
	seed    []float64
	basis   [][]float64
	members []int
}

// Run executes ORCLUS on ds.
func Run(ds *dataset.Dataset, cfg Config) (*Result, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(ds); err != nil {
		return nil, err
	}
	runStart := time.Now()
	var counters obs.Counters
	r := randx.New(cfg.Seed)
	d := ds.Dims()

	k0 := cfg.K0Factor * cfg.K
	if k0 > ds.Len() {
		k0 = ds.Len()
	}
	seedIdx, err := sample.WithoutReplacement(r, ds.Len(), k0)
	if err != nil {
		return nil, fmt.Errorf("orclus: seeding: %w", err)
	}
	clusters := make([]*state, k0)
	for i, si := range seedIdx {
		clusters[i] = &state{
			seed:  append([]float64(nil), ds.Point(si)...),
			basis: identityBasis(d), // full space: projected distance = euclidean
		}
	}

	kc := k0
	lc := float64(d)
	// beta shrinks dimensionality on the same schedule that alpha
	// shrinks the cluster count, reaching L when the count reaches K.
	stages := math.Log(float64(cfg.K)/float64(k0)) / math.Log(cfg.Alpha)
	beta := 1.0
	if stages > 0 && float64(cfg.L) < float64(d) {
		beta = math.Pow(float64(cfg.L)/float64(d), 1/stages)
	}

	for {
		assign(ds, clusters, cfg.Workers, &counters)
		recenter(ds, clusters)
		lcNew := math.Max(float64(cfg.L), lc*beta)
		recomputeBases(ds, clusters, int(math.Round(lcNew)))
		if kc == cfg.K {
			break
		}
		kNew := int(math.Max(float64(cfg.K), cfg.Alpha*float64(kc)))
		clusters = merge(ds, clusters, kNew, int(math.Round(lcNew)))
		kc = len(clusters)
		lc = lcNew
	}
	// Final polish: one more assignment against the final bases.
	assign(ds, clusters, cfg.Workers, &counters)
	recenter(ds, clusters)
	recomputeBases(ds, clusters, cfg.L)
	assign(ds, clusters, cfg.Workers, &counters)
	if cfg.HandleOutliers {
		stripOutliers(ds, clusters, &counters)
	}

	res := &Result{Assignments: make([]int, ds.Len())}
	for i := range res.Assignments {
		res.Assignments[i] = -1
	}
	var weighted float64
	total := 0
	for ci, c := range clusters {
		cl := Cluster{Basis: c.basis, Members: c.members}
		if len(c.members) > 0 {
			cl.Centroid = ds.Centroid(c.members)
			cl.Energy = energy(ds, c.members, cl.Centroid, c.basis)
		} else {
			cl.Centroid = append([]float64(nil), c.seed...)
		}
		for _, p := range c.members {
			res.Assignments[p] = ci
		}
		weighted += cl.Energy * float64(len(cl.Members))
		total += len(cl.Members)
		res.Clusters = append(res.Clusters, cl)
	}
	if total > 0 {
		res.TotalEnergy = weighted / float64(total)
	}
	res.Seed = cfg.Seed
	res.Config = cfg.reportConfig()
	res.Stats = Stats{
		Counters:      counters.Snapshot(),
		DatasetPoints: ds.Len(),
		DatasetDims:   d,
		TotalDuration: time.Since(runStart),
	}
	return res, nil
}

// assign places every point with the seed of smallest projected
// distance, rebuilding each cluster's member list. The per-point
// winners compute in parallel — each is a pure function of the point,
// with the strict < keeping ties on the lowest cluster index — and the
// member lists are then rebuilt serially in ascending point order, so
// the lists are identical to a serial scan's for every worker count.
//
// Counter updates are batched per worker chunk (one atomic add per
// chunk, core's standard), and the per-point work is chunk-shape
// independent — every point scans every cluster — so the totals are
// identical for every worker count.
func assign(ds *dataset.Dataset, clusters []*state, workers int, counters *obs.Counters) {
	for _, c := range clusters {
		c.members = c.members[:0]
	}
	// One point's candidate scan costs len(clusters) projected-distance
	// evaluations, each touching |basis|·d coordinates.
	d := ds.Dims()
	var scanCoords int64
	for _, c := range clusters {
		scanCoords += int64(len(c.basis)) * int64(d)
	}
	best := make([]int, ds.Len())
	parallel.For(ds.Len(), workers, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			pt := ds.Point(p)
			bi, bd := 0, math.Inf(1)
			for i, c := range clusters {
				dd := linalg.ProjectedDistance(pt, c.seed, c.basis)
				if dd < bd {
					bi, bd = i, dd
				}
			}
			best[p] = bi
		}
		n := int64(hi - lo)
		counters.PointsScanned.Add(n)
		counters.DistanceEvals.Add(n * int64(len(clusters)))
		counters.CoordsVisited.Add(n * scanCoords)
	})
	for p, b := range best {
		clusters[b].members = append(clusters[b].members, p)
	}
}

// recenter moves every non-empty cluster's seed to its centroid.
func recenter(ds *dataset.Dataset, clusters []*state) {
	for _, c := range clusters {
		if len(c.members) > 0 {
			c.seed = ds.Centroid(c.members)
		}
	}
}

// recomputeBases sets each cluster's basis to the lc eigenvectors of
// least eigenvalue of its covariance. Clusters with fewer than two
// members keep their previous basis truncated to lc.
func recomputeBases(ds *dataset.Dataset, clusters []*state, lc int) {
	for _, c := range clusters {
		if len(c.members) < 2 {
			if len(c.basis) > lc {
				c.basis = c.basis[:lc]
			}
			continue
		}
		basis, err := leastSpreadBasis(ds, c.members, lc)
		if err == nil {
			c.basis = basis
		}
	}
}

// leastSpreadBasis returns the lc least-eigenvalue eigenvectors of the
// covariance of the given members.
func leastSpreadBasis(ds *dataset.Dataset, members []int, lc int) ([][]float64, error) {
	cov := linalg.Covariance(ds.Dims(), members, ds.Point)
	_, vectors, err := linalg.Eigen(cov)
	if err != nil {
		return nil, err
	}
	if lc > len(vectors) {
		lc = len(vectors)
	}
	return vectors[:lc], nil
}

// merge agglomerates clusters down to kNew by repeatedly unifying the
// pair with the smallest projected energy of the union, evaluated in
// the union's own lc-dimensional least-spread basis (ORCLUS's merging
// criterion).
func merge(ds *dataset.Dataset, clusters []*state, kNew, lc int) []*state {
	for len(clusters) > kNew {
		bestA, bestB := -1, -1
		bestEnergy := math.Inf(1)
		for a := 0; a < len(clusters); a++ {
			for b := a + 1; b < len(clusters); b++ {
				e := unionEnergy(ds, clusters[a], clusters[b], lc)
				if e < bestEnergy {
					bestA, bestB, bestEnergy = a, b, e
				}
			}
		}
		merged := &state{
			members: append(append([]int(nil), clusters[bestA].members...), clusters[bestB].members...),
		}
		if len(merged.members) > 0 {
			merged.seed = ds.Centroid(merged.members)
		} else {
			merged.seed = clusters[bestA].seed
		}
		if len(merged.members) >= 2 {
			if basis, err := leastSpreadBasis(ds, merged.members, lc); err == nil {
				merged.basis = basis
			}
		}
		if merged.basis == nil {
			merged.basis = clusters[bestA].basis
		}
		next := make([]*state, 0, len(clusters)-1)
		for i, c := range clusters {
			if i != bestA && i != bestB {
				next = append(next, c)
			}
		}
		clusters = append(next, merged)
	}
	return clusters
}

// stripOutliers removes from every cluster the members outside all
// spheres of influence: Δ_i is the smallest projected distance (in
// cluster i's basis) from cluster i's centroid to another centroid, and
// a point survives only if some cluster holds it within Δ_i.
func stripOutliers(ds *dataset.Dataset, clusters []*state, counters *obs.Counters) {
	k := len(clusters)
	d := ds.Dims()
	// The pass is serial, so evaluations are tallied exactly — including
	// the data-dependent early break in the sphere scan — and added in
	// one batch at the end.
	var evals, coords, scanned int64
	centroids := make([][]float64, k)
	for i, c := range clusters {
		if len(c.members) > 0 {
			centroids[i] = ds.Centroid(c.members)
		} else {
			centroids[i] = c.seed
		}
	}
	delta := make([]float64, k)
	for i := range clusters {
		delta[i] = math.Inf(1)
		for j := range clusters {
			if i == j {
				continue
			}
			d := linalg.ProjectedDistance(centroids[j], centroids[i], clusters[i].basis)
			evals++
			coords += int64(len(clusters[i].basis)) * int64(ds.Dims())
			if d < delta[i] {
				delta[i] = d
			}
		}
	}
	for _, c := range clusters {
		kept := c.members[:0]
		for _, p := range c.members {
			pt := ds.Point(p)
			scanned++
			inside := false
			for i := range clusters {
				evals++
				coords += int64(len(clusters[i].basis)) * int64(d)
				if linalg.ProjectedDistance(pt, centroids[i], clusters[i].basis) <= delta[i] {
					inside = true
					break
				}
			}
			if inside {
				kept = append(kept, p)
			}
		}
		c.members = kept
	}
	counters.PointsScanned.Add(scanned)
	counters.DistanceEvals.Add(evals)
	counters.CoordsVisited.Add(coords)
}

// unionEnergy returns the projected energy of the union of two clusters
// in the union's own least-spread basis. Degenerate unions (fewer than
// two points) merge for free.
func unionEnergy(ds *dataset.Dataset, a, b *state, lc int) float64 {
	members := append(append([]int(nil), a.members...), b.members...)
	if len(members) < 2 {
		return 0
	}
	centroid := ds.Centroid(members)
	basis, err := leastSpreadBasis(ds, members, lc)
	if err != nil {
		return math.Inf(1)
	}
	return energy(ds, members, centroid, basis)
}

// energy is the mean squared projected distance of members to the
// centroid within the basis.
func energy(ds *dataset.Dataset, members []int, centroid []float64, basis [][]float64) float64 {
	if len(members) == 0 {
		return 0
	}
	var s float64
	for _, p := range members {
		dd := linalg.ProjectedDistance(ds.Point(p), centroid, basis)
		s += dd * dd
	}
	return s / float64(len(members))
}

func identityBasis(d int) [][]float64 {
	basis := make([][]float64, d)
	for i := range basis {
		v := make([]float64, d)
		v[i] = 1
		basis[i] = v
	}
	return basis
}
