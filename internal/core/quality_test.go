package core

// Quality floor of the exact engine on wide data (make quality-gate):
// ARI and NMI against the §4 generator's ground truth.

import (
	"testing"

	"proclus/internal/dataset"
	"proclus/internal/eval"
	"proclus/internal/synth"
)

// wideData generates wide (d = 64), signal-dense data with the paper's
// §4 generator: most dimensions carry cluster structure, so a
// regression in any full-dimensional pass (initialization, localities)
// shows up as lost clusters.
func wideData(t *testing.T) (*dataset.Dataset, []int) {
	t.Helper()
	ds, _, err := synth.Generate(synth.Config{
		N: 3000, Dims: 64, K: 5, FixedDims: 48, MinSizeFraction: 0.1, Seed: 29,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds, eval.LabelsFromDataset(ds)
}

// TestQualityGate is the CI quality gate (make quality-gate): the
// exact engine must recover the planted structure of wideData. The
// floors carry slack below the observed values so only genuine
// regressions trip them.
func TestQualityGate(t *testing.T) {
	ds, labels := wideData(t)
	res, err := Run(ds, Config{K: 5, L: 6, Seed: 41, Restarts: 3, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ari, err := eval.AdjustedRandIndex(labels, res.Assignments)
	if err != nil {
		t.Fatal(err)
	}
	nmi, err := eval.NormalizedMutualInfo(labels, res.Assignments)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("exact: ARI %.4f, NMI %.4f", ari, nmi)
	if ari < 0.80 || nmi < 0.80 {
		t.Fatalf("exact engine below quality floor: ARI %.4f, NMI %.4f", ari, nmi)
	}
}
