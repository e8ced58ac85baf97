package core

// Tests for the incremental hill-climb engine: the cached evaluation
// must be bit-identical to naive re-evaluation for arbitrary
// configurations, recompute only the swapped medoids' cache columns,
// and allocate nothing in steady state.

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"proclus/internal/obs"
	"proclus/internal/randx"
	"proclus/internal/synth"
)

// assertIdenticalResults compares everything the two engines must
// agree on bit-for-bit: the partition, the dimension sets, the exact
// objective, the full trial trace and the per-restart outcomes. The
// counters legitimately differ (that is the point of the cache) and
// timings are nondeterministic, so Stats is compared per field.
func assertIdenticalResults(t *testing.T, inc, naive *Result, context string) {
	t.Helper()
	if math.Float64bits(inc.Objective) != math.Float64bits(naive.Objective) {
		t.Fatalf("%s: objective differs: %v (incremental) vs %v (naive)",
			context, inc.Objective, naive.Objective)
	}
	if inc.Iterations != naive.Iterations {
		t.Fatalf("%s: iterations differ: %d vs %d", context, inc.Iterations, naive.Iterations)
	}
	if !reflect.DeepEqual(inc.Assignments, naive.Assignments) {
		t.Fatalf("%s: assignments differ", context)
	}
	if !reflect.DeepEqual(inc.Clusters, naive.Clusters) {
		t.Fatalf("%s: clusters differ", context)
	}
	if len(inc.Stats.ObjectiveTrace) != len(naive.Stats.ObjectiveTrace) {
		t.Fatalf("%s: trace lengths differ: %d vs %d", context,
			len(inc.Stats.ObjectiveTrace), len(naive.Stats.ObjectiveTrace))
	}
	for i := range inc.Stats.ObjectiveTrace {
		if math.Float64bits(inc.Stats.ObjectiveTrace[i]) != math.Float64bits(naive.Stats.ObjectiveTrace[i]) {
			t.Fatalf("%s: trace differs at trial %d: %v vs %v", context, i,
				inc.Stats.ObjectiveTrace[i], naive.Stats.ObjectiveTrace[i])
		}
	}
	for i := range inc.Stats.Restarts {
		ir, nr := inc.Stats.Restarts[i], naive.Stats.Restarts[i]
		if ir.Iterations != nr.Iterations ||
			math.Float64bits(ir.BestObjective) != math.Float64bits(nr.BestObjective) {
			t.Fatalf("%s: restart %d differs: %+v vs %+v", context, i, ir, nr)
		}
	}
	// The scan passes visit the same points either way; only the
	// distance-evaluation accounting moves.
	if inc.Stats.Counters.PointsScanned != naive.Stats.Counters.PointsScanned {
		t.Fatalf("%s: points scanned differ: %d vs %d", context,
			inc.Stats.Counters.PointsScanned, naive.Stats.Counters.PointsScanned)
	}
	if naive.Stats.Counters.DistCacheHits != 0 || naive.Stats.Counters.DistCacheRecomputes != 0 {
		t.Fatalf("%s: naive engine touched the cache counters: %+v", context, naive.Stats.Counters)
	}
}

// TestIncrementalNaiveEquivalence is the cached-vs-naive metamorphic
// guarantee over randomized datasets and configurations: for any
// input, the incremental engine and the naive reference must produce
// identical Results.
func TestIncrementalNaiveEquivalence(t *testing.T) {
	rng := randx.New(99)
	for trial := 0; trial < 8; trial++ {
		dims := 4 + rng.Intn(8)
		k := 2 + rng.Intn(3)
		fixed := 2 + rng.Intn(dims-2)
		n := 400 + rng.Intn(1200)
		seed := rng.Uint64()
		ds, _, err := synth.Generate(synth.Config{
			N: n, Dims: dims, K: k, FixedDims: fixed, MinSizeFraction: 0.1, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		l := 2 + rng.Intn(fixed-1)
		cfg := Config{
			K: k, L: l, Seed: seed + 1,
			Restarts:       1 + rng.Intn(3),
			Workers:        1 + rng.Intn(4),
			MaxNoImprove:   3 + rng.Intn(10),
			InitMethod:     InitMethod(rng.Intn(2)),
			AssignMetric:   AssignMetric(rng.Intn(2)),
			SkipRefinement: rng.Intn(2) == 0,
		}
		context := fmt.Sprintf("trial %d (n=%d dims=%d k=%d l=%d cfg=%+v)", trial, n, dims, k, l, cfg)

		inc, err := Run(ds, cfg)
		if err != nil {
			t.Fatalf("%s: incremental: %v", context, err)
		}
		naive, err := runNaive(ds, cfg)
		if err != nil {
			t.Fatalf("%s: naive: %v", context, err)
		}
		assertIdenticalResults(t, inc, naive, context)
	}
}

// incrementalFixture builds a white-box runner plus engine over a
// synthetic dataset. Workers: 1 keeps every parallel pass inline so
// allocation measurements see only the evaluation itself.
func incrementalFixture(t testing.TB, n int) (*runner, *incrementalEval, []int) {
	t.Helper()
	ds, _, err := synth.Generate(synth.Config{
		N: n, Dims: 12, K: 4, FixedDims: 5, MinSizeFraction: 0.1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner(ds, Config{K: 4, L: 4, Seed: 11, Workers: 1})
	e := r.newEvaluator().(*incrementalEval)
	medoids := []int{10, n / 3, 2 * n / 5, n - 20}
	return r, e, medoids
}

// TestDistCacheRecomputesOnlySwappedColumns pins the cache's central
// property: the first trial fills all k columns, a trial with one
// swapped medoid recomputes exactly one column of N distances, and an
// unchanged trial recomputes nothing.
func TestDistCacheRecomputesOnlySwappedColumns(t *testing.T) {
	const n = 600
	r, e, medoids := incrementalFixture(t, n)

	recomputes := func() int64 { return r.counters[obs.DistCacheRecomputes].Load() }
	e.evaluate(medoids)
	if got := recomputes(); got != int64(n*len(medoids)) {
		t.Fatalf("first trial recomputed %d distances, want full fill %d", got, n*len(medoids))
	}

	before := recomputes()
	e.evaluate(medoids)
	if got := recomputes() - before; got != 0 {
		t.Fatalf("unchanged trial recomputed %d distances, want 0", got)
	}

	swapped := append([]int(nil), medoids...)
	swapped[2] = n / 2
	before = recomputes()
	e.evaluate(swapped)
	if got := recomputes() - before; got != int64(n) {
		t.Fatalf("one-swap trial recomputed %d distances, want N = %d", got, n)
	}
}

// TestIncrementalEvaluateMatchesNaive checks trial-level equivalence
// directly, including after swaps: the cached evaluation of any medoid
// set must reproduce the naive evaluation bit-for-bit.
func TestIncrementalEvaluateMatchesNaive(t *testing.T) {
	const n = 500
	r, e, medoids := incrementalFixture(t, n)
	sets := [][]int{
		medoids,
		{10, n / 2, 2 * n / 5, n - 20},  // swap position 1
		{10, n / 2, 2 * n / 5, n - 5},   // swap position 3
		{11, n/2 + 1, 2*n/5 + 1, n - 6}, // swap all
		{10, n / 2, 2 * n / 5, n - 5},   // revisit an earlier set
	}
	for si, set := range sets {
		got := e.evaluate(set)
		want := r.evaluateMedoids(set)
		if math.Float64bits(got.objective) != math.Float64bits(want.objective) {
			t.Fatalf("set %d: objective %v vs naive %v", si, got.objective, want.objective)
		}
		if !reflect.DeepEqual(got.dims, want.dims) {
			t.Fatalf("set %d: dims %v vs naive %v", si, got.dims, want.dims)
		}
		if !reflect.DeepEqual(got.assign, want.assign) {
			t.Fatalf("set %d: assignments differ", si)
		}
		if !reflect.DeepEqual(got.sizes, want.sizes) {
			t.Fatalf("set %d: sizes %v vs naive %v", si, got.sizes, want.sizes)
		}
	}
}

// TestIncrementalSteadyStateAllocs proves the zero-alloc claim: once
// the scratch has warmed, hill-climb iterations — both cache-hitting
// re-evaluations and single-medoid swaps — perform no heap
// allocations.
func TestIncrementalSteadyStateAllocs(t *testing.T) {
	const n = 400
	_, e, medoids := incrementalFixture(t, n)
	swapped := append([]int(nil), medoids...)
	swapped[1] = n / 7

	// Warm every buffer both medoid sets can touch.
	e.evaluate(medoids)
	e.evaluate(swapped)
	e.adopt(e.evaluate(medoids))

	if avg := testing.AllocsPerRun(50, func() {
		e.evaluate(medoids)
	}); avg > 0 {
		t.Errorf("steady-state (unchanged medoids) evaluation allocates %.1f times per run, want 0", avg)
	}
	flip := false
	if avg := testing.AllocsPerRun(50, func() {
		if flip {
			e.evaluate(medoids)
		} else {
			e.evaluate(swapped)
		}
		flip = !flip
	}); avg > 0 {
		t.Errorf("steady-state (one swap) evaluation allocates %.1f times per run, want 0", avg)
	}
}
