package core

// Assignment-pass tests: worker-count invariance of the whole counter
// snapshot, and the steady-state allocation contract of the assignment
// chunk the incremental engine reuses across hill-climb iterations.

import (
	"fmt"
	"testing"

	"proclus/internal/dataset"
	"proclus/internal/obs"
	"proclus/internal/synth"
)

// caseOneData is a table1-shaped dataset: 20-dimensional points, five
// clusters each tight in 7 dimensions — the paper's Case 1 regime the
// pinned benchmark configuration runs on.
func caseOneData(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, _, err := synth.Generate(synth.Config{
		N: 2500, Dims: 20, K: 5, FixedDims: 7, MinSizeFraction: 0.1, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestRunCountersWorkerInvariant pins the accounting's determinism:
// every counter is batched per worker chunk from chunking-independent
// per-point work, so the whole snapshot must be bit-stable across
// worker counts.
func TestRunCountersWorkerInvariant(t *testing.T) {
	ds := caseOneData(t)
	var base obs.Snapshot
	for i, workers := range []int{1, 2, 7} {
		res, err := Run(ds, Config{K: 5, L: 7, Seed: 17, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		s := res.Stats.Counters
		if i == 0 {
			base = s
			continue
		}
		if s != base {
			t.Fatalf("workers=%d: counters %+v differ from workers=1 %+v", workers, s, base)
		}
	}
}

// assignFixture builds the steady-state assignment path: the medoid
// rows, dimension sets and assignment buffer the incremental engine
// holds across hill-climb iterations.
func assignFixture(tb testing.TB, n, d, k, l int) (r *runner, medoidPts [][]float64, dims [][]int, assign []int) {
	tb.Helper()
	fixed := l
	if fixed > d {
		fixed = d
	}
	ds, _, err := synth.Generate(synth.Config{
		N: n, Dims: d, K: k, FixedDims: fixed, MinSizeFraction: 0.1, Seed: 7,
	})
	if err != nil {
		tb.Fatal(err)
	}
	r = newRunner(ds, Config{K: k, L: l, Seed: 11, Workers: 1})
	medoidPts = make([][]float64, k)
	dims = make([][]int, k)
	for i := 0; i < k; i++ {
		medoidPts[i] = ds.Point(i * n / k)
		set := make([]int, l)
		for j := range set {
			set[j] = (i + j) % d
		}
		dims[i] = set
	}
	return r, medoidPts, dims, make([]int, n)
}

// TestAssignSteadyStateAllocs proves the assignment chunk's zero-alloc
// claim: once the buffers exist, a full pass allocates nothing.
func TestAssignSteadyStateAllocs(t *testing.T) {
	const n, d, k, l = 800, 20, 5, 7
	r, medoidPts, dims, assign := assignFixture(t, n, d, k, l)
	metric := r.pointMetric()
	if avg := testing.AllocsPerRun(20, func() {
		r.assignChunk(medoidPts, dims, metric, assign, 0, n)
	}); avg > 0 {
		t.Errorf("steady-state assignment allocates %.1f times per pass, want 0", avg)
	}
}

// BenchmarkAssignPoints measures the steady-state assignment pass
// across dimensionalities. Run with -benchmem: the allocation columns
// must stay at zero.
//
//	go test -bench 'BenchmarkAssignPoints' -benchmem ./internal/core/
func BenchmarkAssignPoints(b *testing.B) {
	for _, d := range []int{20, 100, 500} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			const n, k = 2000, 5
			l := 7
			if d >= 100 {
				l = d / 10
			}
			r, medoidPts, dims, assign := assignFixture(b, n, d, k, l)
			metric := r.pointMetric()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.assignChunk(medoidPts, dims, metric, assign, 0, n)
			}
		})
	}
}
