package obs

import (
	"sync"
	"sync/atomic"

	"proclus/internal/obs/metrics"
)

// Counter names one deterministic work counter. It indexes Counters,
// and counterTable below is the single definition of every counter:
// Snapshot, Merge, the <algo>_<name>_total registry series, their
// delta fold and benchcmp's gating all loop over it. Adding a counter
// takes one const here, one Snapshot field and one table row.
type Counter int

const (
	// DistanceEvals counts point-to-point distance evaluations.
	DistanceEvals Counter = iota
	// CoordsVisited counts the coordinates the exact distance kernels
	// read: the Σ evals × |dims| product.
	CoordsVisited
	// PointsScanned counts data-point visits by full-dataset passes
	// (assignment and outlier passes in PROCLUS, histogram and counting
	// passes in CLIQUE).
	PointsScanned
	// DenseUnitProbes counts unit-membership lookups performed by
	// CLIQUE's counting passes.
	DenseUnitProbes
	// DistCacheHits counts point×medoid distance lookups served from
	// the incremental hill-climb engine's per-restart cache — work the
	// naive evaluation would have recomputed.
	DistCacheHits
	// DistCacheRecomputes counts point×medoid distances recomputed into
	// the cache after a medoid swap invalidated their column. Every
	// recompute is also a DistanceEvals evaluation.
	DistCacheRecomputes
	// StreamBlocks counts blocks delivered by out-of-core passes over a
	// PointSource (zero for fully in-memory runs).
	StreamBlocks
	// StreamBytes counts the encoded point bytes those blocks carried.
	StreamBytes

	// NumCounters is the number of counters.
	NumCounters
)

// counterDef is one row of the counter table: the report name (the
// Snapshot JSON tag and the infix of the registry series), the series
// help text, and the Snapshot field holding the count.
type counterDef struct {
	name  string
	help  string
	field func(*Snapshot) *int64
}

var counterTable = [NumCounters]counterDef{
	DistanceEvals: {"distance_evals", "point-to-point distance evaluations",
		func(s *Snapshot) *int64 { return &s.DistanceEvals }},
	CoordsVisited: {"coords_visited", "coordinates read by exact distance kernels",
		func(s *Snapshot) *int64 { return &s.CoordsVisited }},
	PointsScanned: {"points_scanned", "data-point visits by full-dataset passes",
		func(s *Snapshot) *int64 { return &s.PointsScanned }},
	DenseUnitProbes: {"dense_unit_probes", "unit-membership lookups by counting passes",
		func(s *Snapshot) *int64 { return &s.DenseUnitProbes }},
	DistCacheHits: {"distcache_hits", "distance evaluations avoided by the incremental hill-climb cache",
		func(s *Snapshot) *int64 { return &s.DistCacheHits }},
	DistCacheRecomputes: {"distcache_recomputes", "distance-cache column entries recomputed after medoid swaps",
		func(s *Snapshot) *int64 { return &s.DistCacheRecomputes }},
	StreamBlocks: {"stream_blocks", "blocks delivered by out-of-core point-source passes",
		func(s *Snapshot) *int64 { return &s.StreamBlocks }},
	StreamBytes: {"stream_bytes", "encoded point bytes delivered by out-of-core passes",
		func(s *Snapshot) *int64 { return &s.StreamBytes }},
}

// Name returns the counter's report name, which is also its Snapshot
// JSON key.
func (c Counter) Name() string { return counterTable[c].name }

// SeriesName returns the registry series mirroring the counter for
// algo: <algo>_<name>_total.
func (c Counter) SeriesName(algo string) string { return algo + "_" + c.Name() + "_total" }

// Counters aggregates the hot-path work counters of one run, indexed
// by Counter. The algorithms update them in per-worker batches (one
// atomic add per chunk of points), so keeping them always on costs a
// few nanoseconds per thousands of points — benchmark-verified under
// 2% on the assignment hot path (see BenchmarkAssign* in
// internal/core).
//
// Counters must not be copied after first use.
type Counters [NumCounters]atomic.Int64

// Snapshot returns a plain-integer copy of the counters. A nil
// receiver yields the zero Snapshot.
func (c *Counters) Snapshot() Snapshot {
	var s Snapshot
	if c != nil {
		for id := range c {
			*counterTable[id].field(&s) = c[id].Load()
		}
	}
	return s
}

// Snapshot is the immutable, JSON-ready copy of Counters embedded in
// Stats records and run reports. Its int64 fields follow the Counter
// order, and each JSON tag is the counter's Name.
type Snapshot struct {
	DistanceEvals int64 `json:"distance_evals"`
	// CoordsVisited stays zero for algorithms that evaluate no
	// distances (CLIQUE); omitempty keeps their reports byte-stable.
	CoordsVisited   int64 `json:"coords_visited,omitempty"`
	PointsScanned   int64 `json:"points_scanned"`
	DenseUnitProbes int64 `json:"dense_unit_probes"`
	// DistCacheHits and DistCacheRecomputes stay zero under naive
	// evaluation; omitempty keeps pre-cache reports byte-stable.
	DistCacheHits       int64 `json:"distcache_hits,omitempty"`
	DistCacheRecomputes int64 `json:"distcache_recomputes,omitempty"`
	// StreamBlocks and StreamBytes stay zero for in-memory runs;
	// omitempty keeps their reports byte-stable too.
	StreamBlocks int64 `json:"stream_blocks,omitempty"`
	StreamBytes  int64 `json:"stream_bytes,omitempty"`
}

// Get returns the snapshot's count for c.
func (s Snapshot) Get(c Counter) int64 { return *counterTable[c].field(&s) }

// Merge adds o's counts into s, for aggregating several runs into one
// total (e.g. across an experiment's repeats).
func (s *Snapshot) Merge(o Snapshot) {
	for _, def := range counterTable {
		*def.field(s) += *def.field(&o)
	}
}

// CounterSeries mirrors the counters an algorithm exports into its
// <algo>_<name>_total registry series, plus the stream series of
// out-of-core runs. Every method no-ops on a nil receiver, so runs
// without a registry (white-box tests) need no guards.
type CounterSeries struct {
	reg  *metrics.Registry
	algo string
	// series holds one handle per exported counter, nil for the rest.
	series       [NumCounters]*metrics.Gauge
	residentPeak *metrics.Gauge

	// mu guards folded, the snapshot already credited to the registry.
	// Folding deltas (rather than setting totals) keeps the registry
	// counters monotonic when several runs share one registry — the
	// live-monitoring and benchmark-accumulation cases.
	mu     sync.Mutex
	folded Snapshot
}

// NewCounterSeries registers algo's series for the exported counters
// up front, so they are visible on a live /metrics endpoint from the
// first moment of the run. A nil registry yields a nil CounterSeries.
func NewCounterSeries(reg *metrics.Registry, algo string, exported ...Counter) *CounterSeries {
	if reg == nil {
		return nil
	}
	s := &CounterSeries{reg: reg, algo: algo}
	for _, c := range exported {
		s.series[c] = reg.Counter(c.SeriesName(algo), counterTable[c].help)
	}
	return s
}

// EnableStream registers the out-of-core series: the stream block and
// byte counters, and the <algo>_stream_resident_points_peak gauge
// described by residentHelp. Streamed runs call it before their first
// block pass; in-memory runs never do, so their registries (and golden
// snapshots) carry no stream series.
func (s *CounterSeries) EnableStream(residentHelp string) {
	if s == nil {
		return
	}
	for _, c := range []Counter{StreamBlocks, StreamBytes} {
		s.series[c] = s.reg.Counter(c.SeriesName(s.algo), counterTable[c].help)
	}
	s.residentPeak = s.reg.Gauge(s.algo+"_stream_resident_points_peak", residentHelp)
}

// ObserveResidentPeak records the peak number of points a streamed run
// held resident at once. It no-ops unless EnableStream ran.
func (s *CounterSeries) ObserveResidentPeak(points int) {
	if s == nil || s.residentPeak == nil {
		return
	}
	s.residentPeak.Set(float64(points))
}

// Fold credits the counter growth since the previous fold to the
// registered series. The algorithms call it at phase and restart
// boundaries, so a live /metrics scrape tracks a run's progress without
// any per-point cost.
func (s *CounterSeries) Fold(c *Counters) {
	if s == nil {
		return
	}
	cur := c.Snapshot()
	s.mu.Lock()
	prev := s.folded
	s.folded = cur
	s.mu.Unlock()
	for id, g := range s.series {
		if d := cur.Get(Counter(id)) - prev.Get(Counter(id)); g != nil && d != 0 {
			g.Add(float64(d))
		}
	}
}
