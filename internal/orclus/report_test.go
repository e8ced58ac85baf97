package orclus

import (
	"testing"
)

func TestCountersPopulated(t *testing.T) {
	ds, _ := orientedData(t, 11)
	res, err := Run(ds, Config{K: 3, L: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Stats.Counters
	if c.DistanceEvals == 0 || c.CoordsVisited == 0 || c.PointsScanned == 0 {
		t.Fatalf("counters not threaded: %+v", c)
	}
	// Every assignment pass scans the full dataset, so points_scanned
	// must be a multiple of the dataset size (≥ the loop's minimum of
	// three passes).
	if c.PointsScanned%int64(ds.Len()) != 0 || c.PointsScanned < 3*int64(ds.Len()) {
		t.Fatalf("points_scanned = %d for n = %d", c.PointsScanned, ds.Len())
	}
	if res.Stats.DatasetPoints != ds.Len() || res.Stats.DatasetDims != ds.Dims() {
		t.Fatalf("dataset shape %d×%d recorded as %d×%d",
			ds.Len(), ds.Dims(), res.Stats.DatasetPoints, res.Stats.DatasetDims)
	}
}

func TestCountersWorkerInvariant(t *testing.T) {
	// The assignment pass batches one atomic add per worker chunk, and
	// the per-point work is chunk-shape independent, so the totals must
	// be bit-identical for every goroutine budget.
	ds, _ := orientedData(t, 19)
	base, err := Run(ds, Config{K: 3, L: 2, Seed: 7, Workers: 1, HandleOutliers: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 7} {
		res, err := Run(ds, Config{K: 3, L: 2, Seed: 7, Workers: w, HandleOutliers: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Counters != base.Stats.Counters {
			t.Fatalf("workers=%d: counters %+v != serial %+v", w, res.Stats.Counters, base.Stats.Counters)
		}
	}
}

func TestReport(t *testing.T) {
	ds, _ := orientedData(t, 17)
	res, err := Run(ds, Config{K: 3, L: 2, Seed: 5, Workers: 2, HandleOutliers: true})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report()
	if rep.Algorithm != "orclus" {
		t.Fatalf("algorithm %q", rep.Algorithm)
	}
	if rep.Dataset.Points != ds.Len() || rep.Dataset.Dims != ds.Dims() {
		t.Fatalf("dataset info %+v", rep.Dataset)
	}
	if rep.Seed != 5 {
		t.Fatalf("seed %d", rep.Seed)
	}
	cfg, ok := rep.Config.(ConfigReport)
	if !ok {
		t.Fatalf("config echo has type %T", rep.Config)
	}
	if cfg.K != 3 || cfg.L != 2 || cfg.K0Factor != 5 || cfg.Alpha != 0.5 || !cfg.HandleOutliers {
		t.Fatalf("config echo missing defaults: %+v", cfg)
	}
	if rep.Counters != res.Stats.Counters {
		t.Fatal("report counters differ from stats")
	}
	if rep.Objective != res.TotalEnergy {
		t.Fatal("objective mismatch")
	}
	if len(rep.Clusters) != len(res.Clusters) {
		t.Fatalf("%d cluster reports for %d clusters", len(rep.Clusters), len(res.Clusters))
	}
	for i, cr := range rep.Clusters {
		if cr.ID != i || cr.Medoid != -1 || cr.Size != len(res.Clusters[i].Members) {
			t.Fatalf("cluster report %d: %+v", i, cr)
		}
	}
	if rep.Outliers != res.NumOutliers() {
		t.Fatalf("outliers %d != %d", rep.Outliers, res.NumOutliers())
	}
	if len(rep.Phases) != 1 || rep.Phases[0].Name != "cluster" {
		t.Fatalf("phases %+v", rep.Phases)
	}
}
