package clique

import "proclus/internal/obs/metrics"

// CLIQUE metric series names, besides the work-counter and stream
// series of obs.CounterSeries.
const (
	MetricPhaseSeconds    = "clique_phase_seconds"
	MetricLevelSeconds    = "clique_level_seconds"
	MetricLevelDenseRatio = "clique_level_dense_ratio"
	MetricDatasetPoints   = "clique_dataset_points"
	MetricDatasetDims     = "clique_dataset_dims"
)

// searcherMetrics caches pre-resolved metric handles, mirroring the
// discipline of the PROCLUS runner: lookups happen once, recording is
// lock-free, and a nil receiver (white-box tests) no-ops.
type searcherMetrics struct {
	reg *metrics.Registry

	phaseSeconds    map[string]*metrics.Histogram
	levelSeconds    *metrics.Histogram
	levelDenseRatio *metrics.Histogram
	datasetPoints   *metrics.Gauge
	datasetDims     *metrics.Gauge
}

func newSearcherMetrics(reg *metrics.Registry) *searcherMetrics {
	if reg == nil {
		return nil
	}
	m := &searcherMetrics{reg: reg, phaseSeconds: map[string]*metrics.Histogram{}}
	for _, phase := range []string{"histogram", "search", "report"} {
		m.phaseSeconds[phase] = reg.Histogram(MetricPhaseSeconds,
			"wall time of one algorithm phase in seconds", metrics.L("phase", phase))
	}
	m.levelSeconds = reg.Histogram(MetricLevelSeconds,
		"wall time of one lattice level in seconds")
	m.levelDenseRatio = reg.Histogram(MetricLevelDenseRatio,
		"dense units kept per candidate unit at one lattice level")
	m.datasetPoints = reg.Gauge(MetricDatasetPoints, "points in the current input")
	m.datasetDims = reg.Gauge(MetricDatasetDims, "dimensionality of the current input")
	return m
}

func (m *searcherMetrics) observeRunStart(points, dims int) {
	if m == nil {
		return
	}
	m.datasetPoints.Set(float64(points))
	m.datasetDims.Set(float64(dims))
}

func (m *searcherMetrics) observePhase(phase string, seconds float64) {
	if m == nil {
		return
	}
	m.phaseSeconds[phase].Observe(seconds)
}

// observeLevel records one lattice level's wall time and, when the
// level generated candidates, the fraction that survived as dense.
func (m *searcherMetrics) observeLevel(seconds float64, candidates, dense int) {
	if m == nil {
		return
	}
	m.levelSeconds.Observe(seconds)
	if candidates > 0 {
		m.levelDenseRatio.Observe(float64(dense) / float64(candidates))
	}
}

func (m *searcherMetrics) snapshot() metrics.Snapshot {
	if m == nil {
		return nil
	}
	return m.reg.Snapshot()
}
