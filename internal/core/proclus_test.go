package core

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"proclus/internal/dataset"
	"proclus/internal/obs"
	"proclus/internal/randx"
	"proclus/internal/synth"
)

// wellSeparated builds a small dataset with two obvious projected
// clusters: cluster 0 is tight on dims {0,1} near (10,10,·,·), cluster 1
// is tight on dims {2,3} near (·,·,90,90); the remaining coordinates are
// uniform.
func wellSeparated(t *testing.T, perCluster int) *dataset.Dataset {
	t.Helper()
	r := randx.New(7)
	ds := dataset.New(4)
	for i := 0; i < perCluster; i++ {
		ds.AppendLabeled([]float64{
			r.Normal(10, 1), r.Normal(10, 1), r.Uniform(0, 100), r.Uniform(0, 100),
		}, 0)
		ds.AppendLabeled([]float64{
			r.Uniform(0, 100), r.Uniform(0, 100), r.Normal(90, 1), r.Normal(90, 1),
		}, 1)
	}
	return ds
}

func TestRunValidatesConfig(t *testing.T) {
	ds := wellSeparated(t, 50)
	cases := []Config{
		{K: 0, L: 2},
		{K: 2, L: 1},
		{K: 2, L: 5},                    // L > dims
		{K: 2, L: 2, MinDeviation: 1.5}, // bad deviation
		{K: 2, L: 2, MinDeviation: math.NaN()},
		{K: 2, L: 2, MaxNoImprove: -1},
		{K: 2, L: 2, MaxIterations: -1},
		{K: 2, L: 2, MedoidFactor: 10, SampleFactor: 5},
		{K: 1000, L: 2}, // more clusters than points
	}
	for i, cfg := range cases {
		if _, err := Run(ds, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
}

func TestRunRejectsCorruptDataset(t *testing.T) {
	ds := dataset.New(2)
	ds.Append([]float64{1, math.NaN()})
	if _, err := Run(ds, Config{K: 1, L: 2}); err == nil {
		t.Fatal("NaN dataset accepted")
	}
}

func TestRunRecoverTwoProjectedClusters(t *testing.T) {
	ds := wellSeparated(t, 150)
	res, err := Run(ds, Config{K: 2, L: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 2 {
		t.Fatalf("got %d clusters", len(res.Clusters))
	}

	// Each output cluster should be dominated by one input label, and the
	// two output clusters by different labels.
	dominant := make([]int, 2)
	for ci, cl := range res.Clusters {
		counts := map[int]int{}
		for _, p := range cl.Members {
			counts[ds.Label(p)]++
		}
		best, bestN := -2, -1
		for l, n := range counts {
			if n > bestN {
				best, bestN = l, n
			}
		}
		if bestN < len(cl.Members)*9/10 {
			t.Fatalf("cluster %d not pure: %v", ci, counts)
		}
		dominant[ci] = best
	}
	if dominant[0] == dominant[1] {
		t.Fatalf("both output clusters map to input %d", dominant[0])
	}

	// Dimension sets must match the generating subspaces.
	wantDims := map[int][]int{0: {0, 1}, 1: {2, 3}}
	for ci, cl := range res.Clusters {
		want := wantDims[dominant[ci]]
		if len(cl.Dimensions) != len(want) {
			t.Fatalf("cluster %d dims %v, want %v", ci, cl.Dimensions, want)
		}
		for i := range want {
			if cl.Dimensions[i] != want[i] {
				t.Fatalf("cluster %d dims %v, want %v", ci, cl.Dimensions, want)
			}
		}
	}
}

// comparableResult strips a Result down to the fields the determinism
// contract covers: everything except wall-clock durations and the
// Workers echo in the config report.
type comparableResult struct {
	Clusters    []Cluster
	Assignments []int
	Objective   float64
	Iterations  int
	Seed        uint64
	Trace       []float64
	Restarts    []RestartStats
	Counters    obs.Snapshot
}

func stripTimings(res *Result) comparableResult {
	c := comparableResult{
		Clusters:    res.Clusters,
		Assignments: res.Assignments,
		Objective:   res.Objective,
		Iterations:  res.Iterations,
		Seed:        res.Seed,
		Trace:       res.Stats.ObjectiveTrace,
		Counters:    res.Stats.Counters,
	}
	for _, rs := range res.Stats.Restarts {
		rs.Duration = 0
		c.Restarts = append(c.Restarts, rs)
	}
	return c
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	ds := wellSeparated(t, 100)
	var prev *comparableResult
	var prevWorkers int
	for _, workers := range []int{1, 2, 8} {
		res, err := Run(ds, Config{K: 2, L: 2, Seed: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got := stripTimings(res)
		if prev != nil && !reflect.DeepEqual(got, *prev) {
			t.Fatalf("result differs between Workers=%d and Workers=%d:\n%+v\nvs\n%+v",
				prevWorkers, workers, *prev, got)
		}
		prev, prevWorkers = &got, workers
	}
}

func TestRunDeterministicSameSeed(t *testing.T) {
	ds := wellSeparated(t, 80)
	a, err := Run(ds, Config{K: 2, L: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(ds, Config{K: 2, L: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assignments {
		if a.Assignments[i] != b.Assignments[i] {
			t.Fatalf("same seed diverged at point %d", i)
		}
	}
}

func TestResultInvariants(t *testing.T) {
	ds := wellSeparated(t, 120)
	res, err := Run(ds, Config{K: 2, L: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignments) != ds.Len() {
		t.Fatalf("assignments length %d, want %d", len(res.Assignments), ds.Len())
	}
	// Membership lists and assignments must agree exactly.
	fromMembers := make([]int, ds.Len())
	for i := range fromMembers {
		fromMembers[i] = OutlierID
	}
	for ci, cl := range res.Clusters {
		if !sort.IntsAreSorted(cl.Members) {
			t.Fatalf("cluster %d members not sorted", ci)
		}
		for _, p := range cl.Members {
			if fromMembers[p] != OutlierID {
				t.Fatalf("point %d in two clusters", p)
			}
			fromMembers[p] = ci
		}
		if len(cl.Dimensions) < 2 {
			t.Fatalf("cluster %d has %d dims, want >= 2", ci, len(cl.Dimensions))
		}
		if !sort.IntsAreSorted(cl.Dimensions) {
			t.Fatalf("cluster %d dims not sorted: %v", ci, cl.Dimensions)
		}
		if len(cl.Centroid) != ds.Dims() {
			t.Fatalf("cluster %d centroid has %d dims", ci, len(cl.Centroid))
		}
	}
	for i := range fromMembers {
		if fromMembers[i] != res.Assignments[i] {
			t.Fatalf("point %d: members say %d, assignments say %d",
				i, fromMembers[i], res.Assignments[i])
		}
	}
	// Dimension budget: total = K·L with >= 2 each.
	total := 0
	for _, cl := range res.Clusters {
		total += len(cl.Dimensions)
	}
	if total != 2*2 {
		t.Fatalf("total dimensions %d, want 4", total)
	}
	if res.Objective < 0 {
		t.Fatalf("negative objective %v", res.Objective)
	}
}

func TestRunOnPaperStyleData(t *testing.T) {
	// A miniature of the paper's Case 1: 5 clusters in 7-dim subspaces of
	// a 20-dim space. PROCLUS should recover dimension sets exactly and
	// produce a near-diagonal confusion structure.
	ds, gt, err := synth.Generate(synth.Config{
		N: 4000, Dims: 20, K: 5, FixedDims: 7, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ds, Config{K: 5, L: 7, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Match each output cluster to its dominant input label.
	matched := map[int]bool{}
	exactDims := 0
	for _, cl := range res.Clusters {
		counts := map[int]int{}
		for _, p := range cl.Members {
			if l := ds.Label(p); l >= 0 {
				counts[l]++
			}
		}
		best, bestN := -1, 0
		for l, n := range counts {
			if n > bestN {
				best, bestN = l, n
			}
		}
		if best < 0 {
			continue
		}
		if float64(bestN) < 0.8*float64(len(cl.Members)) {
			t.Logf("impure cluster: %v", counts)
		}
		matched[best] = true
		if dimsEqual(cl.Dimensions, gt.Dimensions[best]) {
			exactDims++
		}
	}
	if len(matched) < 4 {
		t.Fatalf("only %d of 5 input clusters matched by an output cluster", len(matched))
	}
	if exactDims < 3 {
		t.Fatalf("only %d of 5 output dimension sets exactly match ground truth", exactDims)
	}
}

func dimsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRunMarksUniformNoiseAsOutliers(t *testing.T) {
	// Tight clusters plus scattered noise: a decent share of the noise
	// must be flagged as outliers; near-zero flagged outliers would mean
	// the sphere-of-influence logic is broken.
	r := randx.New(21)
	ds := dataset.New(6)
	for i := 0; i < 300; i++ {
		ds.AppendLabeled([]float64{
			r.Normal(20, 1), r.Normal(20, 1), r.Normal(20, 1),
			r.Uniform(0, 100), r.Uniform(0, 100), r.Uniform(0, 100),
		}, 0)
		ds.AppendLabeled([]float64{
			r.Uniform(0, 100), r.Uniform(0, 100), r.Uniform(0, 100),
			r.Normal(80, 1), r.Normal(80, 1), r.Normal(80, 1),
		}, 1)
	}
	// In-range uniform noise: the paper's sphere-of-influence criterion
	// is lenient on these (Table 3 flags only ~half the planted
	// outliers), so the assertions are correspondingly loose — some
	// noise must be flagged, and flagged cluster points must stay rare.
	for i := 0; i < 60; i++ {
		p := make([]float64, 6)
		for j := range p {
			p[j] = r.Uniform(0, 100)
		}
		ds.AppendLabeled(p, dataset.Outlier)
	}
	res, err := Run(ds, Config{K: 2, L: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	noiseFlagged := 0
	clusterFlagged := 0
	for i := 0; i < ds.Len(); i++ {
		if res.Assignments[i] == OutlierID {
			if ds.Label(i) == dataset.Outlier {
				noiseFlagged++
			} else {
				clusterFlagged++
			}
		}
	}
	if noiseFlagged == 0 {
		t.Fatal("no noise points flagged as outliers")
	}
	if clusterFlagged > 120 {
		t.Fatalf("%d genuine cluster points flagged as outliers", clusterFlagged)
	}
}

func TestRefineOutlierCriterion(t *testing.T) {
	// White-box: with hand-picked medoids, refine must flag exactly the
	// points whose segmental distance to every medoid exceeds that
	// medoid's sphere of influence.
	ds := dataset.New(2)
	// Cluster around (0, 0): indices 0..9. Index 0 is the medoid.
	for i := 0; i < 10; i++ {
		ds.Append([]float64{float64(i) * 0.1, float64(i) * 0.1})
	}
	// Cluster around (100, 100): indices 10..19. Index 10 is the medoid.
	for i := 0; i < 10; i++ {
		ds.Append([]float64{100 + float64(i)*0.1, 100 + float64(i)*0.1})
	}
	// A point halfway between: inside both spheres of influence
	// (Δ = inter-medoid distance), so NOT an outlier. Index 20.
	ds.Append([]float64{50, 50})
	// A point far outside both spheres. Index 21.
	ds.Append([]float64{500, 500})

	r := newRunner(ds, Config{K: 2, L: 2, Seed: 1})
	assign := make([]int, ds.Len())
	for i := 10; i < 20; i++ {
		assign[i] = 1
	}
	assign[20] = 0
	assign[21] = 1
	best := &trialState{medoids: []int{0, 10}, assign: assign}
	res, err := r.refine(best)
	if err != nil {
		t.Fatal(err)
	}

	if res.Assignments[21] != OutlierID {
		t.Fatal("far point not flagged as outlier")
	}
	if res.Assignments[20] == OutlierID {
		t.Fatal("midpoint inside both spheres flagged as outlier")
	}
	for i := 0; i < 20; i++ {
		if res.Assignments[i] == OutlierID {
			t.Fatalf("tight cluster point %d flagged as outlier", i)
		}
	}
	if res.Assignments[5] != 0 || res.Assignments[15] != 1 {
		t.Fatal("refinement scrambled obvious assignments")
	}
}

func TestRunSmallDataset(t *testing.T) {
	// k close to N: algorithm must not crash on tiny inputs.
	ds, _ := dataset.FromRows([][]float64{
		{0, 0}, {0, 1}, {10, 10}, {10, 11}, {20, 0}, {21, 0},
	}, nil)
	res, err := Run(ds, Config{K: 3, L: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 3 {
		t.Fatalf("got %d clusters", len(res.Clusters))
	}
}

func TestRunAllDuplicatePoints(t *testing.T) {
	ds := dataset.New(3)
	for i := 0; i < 50; i++ {
		ds.Append([]float64{5, 5, 5})
	}
	res, err := Run(ds, Config{K: 2, L: 2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Everything is identical: whatever the partition, no point may be
	// lost and the objective must be zero.
	if got := res.NumOutliers() + totalMembers(res); got != 50 {
		t.Fatalf("points lost: %d accounted, want 50", got)
	}
	if res.Objective != 0 {
		t.Fatalf("objective %v on identical points", res.Objective)
	}
}

func totalMembers(res *Result) int {
	n := 0
	for _, cl := range res.Clusters {
		n += len(cl.Members)
	}
	return n
}

func TestRunKEqualsOne(t *testing.T) {
	ds := wellSeparated(t, 40)
	res, err := Run(ds, Config{K: 1, L: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 1 {
		t.Fatalf("got %d clusters", len(res.Clusters))
	}
	// With a single medoid there is no "nearest other medoid"; every
	// non-outlier point lands in the one cluster.
	if totalMembers(res)+res.NumOutliers() != ds.Len() {
		t.Fatal("points lost with k=1")
	}
}

func TestObjectiveImprovesOverRandomMedoids(t *testing.T) {
	// The hill climb should do no worse than its own first trial. We
	// approximate by checking the reported objective is finite and small
	// relative to the data range on recovered dims.
	ds := wellSeparated(t, 100)
	res, err := Run(ds, Config{K: 2, L: 2, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(res.Objective, 0) || math.IsNaN(res.Objective) {
		t.Fatalf("objective %v", res.Objective)
	}
	if res.Objective > 20 {
		t.Fatalf("objective %v suspiciously large for tight clusters", res.Objective)
	}
	if res.Iterations < 1 {
		t.Fatalf("iterations %d", res.Iterations)
	}
}
