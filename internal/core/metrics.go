package core

import "proclus/internal/obs/metrics"

// PROCLUS metric series names, besides the work-counter and stream
// series of obs.CounterSeries. The histograms and rate capture the
// distributions the paper's §4 scalability story is made of.
const (
	MetricPhaseSeconds    = "proclus_phase_seconds"
	MetricRestartSeconds  = "proclus_restart_seconds"
	MetricObjectiveDelta  = "proclus_objective_delta"
	MetricAssignRate      = "proclus_assign_points_per_second"
	MetricDatasetPoints   = "proclus_dataset_points"
	MetricDatasetDims     = "proclus_dataset_dims"
	MetricObjectiveLatest = "proclus_objective"
)

// runnerMetrics caches pre-resolved metric handles so instrumentation
// sites never take the registry mutex on the hot path. A nil
// *runnerMetrics (white-box tests construct runners directly) no-ops
// everywhere, like a nil observer.
type runnerMetrics struct {
	reg *metrics.Registry

	phaseSeconds   map[string]*metrics.Histogram
	restartSeconds *metrics.Histogram
	objectiveDelta *metrics.Histogram
	assignRate     *metrics.Rate
	datasetPoints  *metrics.Gauge
	datasetDims    *metrics.Gauge
	objective      *metrics.Gauge
}

// newRunnerMetrics resolves every handle up front, which also makes all
// series (phase histograms included) visible on a live /metrics
// endpoint from the first moment of the run.
func newRunnerMetrics(reg *metrics.Registry) *runnerMetrics {
	if reg == nil {
		return nil
	}
	m := &runnerMetrics{reg: reg, phaseSeconds: map[string]*metrics.Histogram{}}
	for _, phase := range []string{"initialize", "iterate", "refine"} {
		m.phaseSeconds[phase] = reg.Histogram(MetricPhaseSeconds,
			"wall time of one algorithm phase in seconds", metrics.L("phase", phase))
	}
	m.restartSeconds = reg.Histogram(MetricRestartSeconds,
		"wall time of one hill-climb restart in seconds")
	m.objectiveDelta = reg.Histogram(MetricObjectiveDelta,
		"objective improvement of accepted hill-climb trials")
	m.assignRate = reg.Rate(MetricAssignRate,
		"assignment-pass throughput in points per second")
	m.datasetPoints = reg.Gauge(MetricDatasetPoints, "points in the current input")
	m.datasetDims = reg.Gauge(MetricDatasetDims, "dimensionality of the current input")
	m.objective = reg.Gauge(MetricObjectiveLatest, "objective of the latest finished run")
	return m
}

func (m *runnerMetrics) observeRunStart(points, dims int) {
	if m == nil {
		return
	}
	m.datasetPoints.Set(float64(points))
	m.datasetDims.Set(float64(dims))
}

func (m *runnerMetrics) observePhase(phase string, seconds float64) {
	if m == nil {
		return
	}
	m.phaseSeconds[phase].Observe(seconds)
}

func (m *runnerMetrics) observeRestart(seconds float64) {
	if m == nil {
		return
	}
	m.restartSeconds.Observe(seconds)
}

func (m *runnerMetrics) observeObjectiveDelta(delta float64) {
	if m == nil {
		return
	}
	m.objectiveDelta.Observe(delta)
}

func (m *runnerMetrics) observeAssign(points int64, seconds float64) {
	if m == nil {
		return
	}
	m.assignRate.Observe(points, seconds)
}

func (m *runnerMetrics) observeObjective(v float64) {
	if m == nil {
		return
	}
	m.objective.Set(v)
}

// snapshot returns the registry's current state for embedding in Stats.
func (m *runnerMetrics) snapshot() metrics.Snapshot {
	if m == nil {
		return nil
	}
	return m.reg.Snapshot()
}
