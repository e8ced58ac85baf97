package core

// Tests for the ablation knobs (InitMethod, AssignMetric,
// SkipRefinement) and the Stats observability record.

import (
	"context"
	"errors"
	"testing"

	"proclus/internal/dataset"
	"proclus/internal/obs"
	"proclus/internal/randx"
	"proclus/internal/synth"
)

func contextWithCancel() (context.Context, context.CancelFunc) {
	return context.WithCancel(context.Background())
}

func ablationData(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, _, err := synth.Generate(synth.Config{
		N: 3000, Dims: 12, K: 3, FixedDims: 4, MinSizeFraction: 0.15, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestInitRandomRuns(t *testing.T) {
	ds := ablationData(t)
	res, err := Run(ds, Config{K: 3, L: 4, Seed: 1, InitMethod: InitRandom})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 3 {
		t.Fatalf("clusters: %d", len(res.Clusters))
	}
}

func TestInitRandomCandidatesAreUniform(t *testing.T) {
	// White-box: with InitRandom, candidate counts per label should be
	// roughly proportional to cluster sizes rather than spread-biased.
	ds := ablationData(t)
	r := newRunner(ds, Config{K: 3, L: 4, Seed: 5, InitMethod: InitRandom})
	cands, err := r.initialize()
	if err != nil {
		t.Fatal(err)
	}
	if want := r.cfg.MedoidFactor * 3; len(cands) != want {
		t.Fatalf("got %d candidates, want %d", len(cands), want)
	}
	seen := map[int]bool{}
	for _, c := range cands {
		if seen[c] {
			t.Fatal("duplicate candidate")
		}
		seen[c] = true
	}
}

func TestMetricManhattanRuns(t *testing.T) {
	ds := ablationData(t)
	res, err := Run(ds, Config{K: 3, L: 4, Seed: 1, AssignMetric: MetricManhattan})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignments) != ds.Len() {
		t.Fatal("missing assignments")
	}
}

func TestMetricsDisagreeOnUnevenDims(t *testing.T) {
	// A point equidistant per-dimension from two medoids with different
	// dimension-set sizes is assigned differently under the two metrics:
	// segmental normalizes, plain Manhattan favours the smaller set.
	ds, _ := dataset.FromRows([][]float64{
		{0, 0, 0, 0}, // medoid 0, dims {0,1}
		{9, 9, 9, 9}, // medoid 1, dims {0,1,2,3}
		{6, 6, 6, 6}, // contested point
	}, nil)
	r := newRunner(ds, Config{K: 2, L: 3})
	dims := [][]int{{0, 1}, {0, 1, 2, 3}}

	// Segmental: d0 = (6+6)/2 = 6, d1 = (3+3+3+3)/4 = 3 → medoid 1.
	segAssign, _ := r.assignPoints([]int{0, 1}, dims)
	if segAssign[2] != 1 {
		t.Fatalf("segmental assigned to %d, want 1", segAssign[2])
	}

	// Manhattan: d0 = 12, d1 = 12 → tie → medoid 0 (lower index).
	r2 := newRunner(ds, Config{K: 2, L: 3, AssignMetric: MetricManhattan})
	manAssign, _ := r2.assignPoints([]int{0, 1}, dims)
	if manAssign[2] != 0 {
		t.Fatalf("manhattan assigned to %d, want 0", manAssign[2])
	}
}

func TestSkipRefinementNoOutliers(t *testing.T) {
	ds := ablationData(t)
	res, err := Run(ds, Config{K: 3, L: 4, Seed: 1, SkipRefinement: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumOutliers() != 0 {
		t.Fatalf("%d outliers despite skipped refinement", res.NumOutliers())
	}
	total := 0
	for _, cl := range res.Clusters {
		total += len(cl.Members)
	}
	if total != ds.Len() {
		t.Fatalf("points lost: %d of %d", total, ds.Len())
	}
}

func TestRunContextCancellation(t *testing.T) {
	ds := ablationData(t)
	ctx, cancel := contextWithCancel()
	cancel() // cancelled before the first trial completes a restart
	_, err := RunContext(ctx, ds, Config{K: 3, L: 4, Seed: 1})
	if err == nil {
		t.Fatal("cancelled context did not abort the run")
	}
}

// cancelAtRefine cancels a context when the refine phase starts.
type cancelAtRefine struct{ cancel context.CancelFunc }

func (c cancelAtRefine) Observe(e obs.Event) {
	if e.Type == obs.EvPhaseStart && e.Phase == "refine" {
		c.cancel()
	}
}

// TestRunContextCancelledBeforeRefine checks that a cancellation landing
// after the hill climb stops the run at its refinement pass, as it
// stops a streamed run.
func TestRunContextCancelledBeforeRefine(t *testing.T) {
	ds := ablationData(t)
	ctx, cancel := contextWithCancel()
	defer cancel()
	res, err := RunContext(ctx, ds, Config{K: 3, L: 4, Seed: 1, Observer: cancelAtRefine{cancel}})
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("got (%v, %v), want (nil, context.Canceled)", res, err)
	}
}

func TestRunContextCompletesWhenNotCancelled(t *testing.T) {
	ds := ablationData(t)
	ctx, cancel := contextWithCancel()
	defer cancel()
	res, err := RunContext(ctx, ds, Config{K: 3, L: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 3 {
		t.Fatalf("clusters: %d", len(res.Clusters))
	}
}

func TestStatsPopulated(t *testing.T) {
	ds := ablationData(t)
	res, err := Run(ds, Config{K: 3, L: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.InitDuration <= 0 || s.IterateDuration <= 0 || s.RefineDuration <= 0 {
		t.Fatalf("phase durations not recorded: %+v", s)
	}
	if len(s.ObjectiveTrace) != res.Iterations {
		t.Fatalf("trace has %d entries for %d iterations", len(s.ObjectiveTrace), res.Iterations)
	}
	for _, o := range s.ObjectiveTrace {
		if o < 0 {
			t.Fatalf("negative objective in trace: %v", o)
		}
	}
}

func TestGreedyInitBeatsRandomOnSmallClusters(t *testing.T) {
	// The paper's rationale for farthest-first initialization: it
	// represents small, well-separated clusters that uniform sampling
	// misses. Build one dominant cluster plus two small far-away ones
	// and compare candidate coverage across several seeds.
	r := randx.New(17)
	ds := dataset.New(4)
	for i := 0; i < 900; i++ {
		ds.AppendLabeled([]float64{r.Normal(50, 3), r.Normal(50, 3), r.Normal(50, 3), r.Normal(50, 3)}, 0)
	}
	for i := 0; i < 50; i++ {
		ds.AppendLabeled([]float64{r.Normal(5, 1), r.Normal(5, 1), r.Normal(5, 1), r.Normal(5, 1)}, 1)
		ds.AppendLabeled([]float64{r.Normal(95, 1), r.Normal(95, 1), r.Normal(95, 1), r.Normal(95, 1)}, 2)
	}
	coverage := func(method InitMethod) int {
		covered := 0
		for seed := uint64(0); seed < 10; seed++ {
			rr := newRunner(ds, Config{K: 3, L: 2, Seed: seed, InitMethod: method, MedoidFactor: 3})
			cands, err := rr.initialize()
			if err != nil {
				t.Fatal(err)
			}
			labels := map[int]bool{}
			for _, c := range cands {
				labels[ds.Label(c)] = true
			}
			if len(labels) == 3 {
				covered++
			}
		}
		return covered
	}
	greedyCov := coverage(InitGreedy)
	randomCov := coverage(InitRandom)
	if greedyCov < randomCov {
		t.Fatalf("greedy init covered all clusters in %d/10 seeds, random in %d/10",
			greedyCov, randomCov)
	}
	if greedyCov < 8 {
		t.Fatalf("greedy init covered all clusters in only %d/10 seeds", greedyCov)
	}
}
