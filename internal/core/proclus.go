package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"proclus/internal/dataset"
	"proclus/internal/dist"
	"proclus/internal/greedy"
	"proclus/internal/obs"
	"proclus/internal/obs/metrics"
	"proclus/internal/parallel"
	"proclus/internal/randx"
	"proclus/internal/sample"
)

// Run executes PROCLUS on ds with the given configuration.
func Run(ds *dataset.Dataset, cfg Config) (*Result, error) {
	return RunContext(context.Background(), ds, cfg)
}

// RunContext executes PROCLUS on ds, aborting between hill-climbing
// trials, or before the refinement pass, when ctx is cancelled. The
// context is checked at trial granularity — one trial over a large
// dataset completes before the cancellation takes effect.
//
// RunContext runs the same engine as RunStream, over a single zero-copy
// block covering ds. Holding the points resident lets the hill climb
// score every trial against the full dataset rather than the sample.
func RunContext(ctx context.Context, ds *dataset.Dataset, cfg Config) (*Result, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(ds); err != nil {
		return nil, err
	}
	return newEngine(ctx, dataset.NewMemorySource(ds, ds.Len()), ds, cfg).run()
}

// RunStream executes PROCLUS against a PointSource in bounded memory:
// only the A·K-point initialization sample plus the source's block
// buffers are ever resident, never the full point matrix. This is the
// paper's own execution model (§3: every full-data stage is a single
// pass over disk-resident data, while the hill climb works on the
// in-memory sample):
//
//  1. One block pass collects the random sample; greedy farthest-first
//     thins it to the candidate medoids.
//  2. The hill-climb restarts run entirely on the resident sample —
//     localities, dimension selection, assignment and objective are
//     computed over sample points only.
//  3. Refinement recomputes dimensions from the best sample clustering,
//     then one block pass assigns every point (and flags outliers)
//     while accumulating cluster centroids, and one more scores the
//     final partition.
//
// The Result is a deterministic function of the point data and cfg
// alone: any two sources presenting the same points — a MemorySource, a
// FileSource over the written file, any block size, any Workers value —
// yield bit-identical Results. It deliberately differs from Run, whose
// hill climb scores trials against the full dataset (a luxury of having
// the matrix resident); with InitRandom, candidates are likewise drawn
// from the sample rather than the full dataset. Cluster medoid indices
// refer to the full dataset, as do Assignments and Members.
//
// The context cancels between hill-climb trials and between blocks of
// every pass. A source whose blocks are not contiguous from index 0 or
// do not end at exactly Len() fails the run with an error. Stats gains
// stream counters (blocks, bytes) and the registry a
// proclus_stream_resident_points_peak gauge recording the
// O(sample + block) residency bound.
func RunStream(ctx context.Context, src PointSource, cfg Config) (*Result, error) {
	if src == nil {
		return nil, fmt.Errorf("proclus: nil point source")
	}
	cfg = cfg.withDefaults()
	if err := cfg.validateShape(src.Len(), src.Dims()); err != nil {
		return nil, err
	}
	return newEngine(ctx, src, nil, cfg).run()
}

// runner carries the state of one PROCLUS execution. One engine serves
// both entry points: every full-data stage is a pass over src, and the
// hill climb scores its trials against the scoring set ds.
type runner struct {
	ctx context.Context
	// src is the full point set; every full-data pass sweeps it.
	src PointSource
	// ds is the scoring set, the points the hill climb evaluates trials
	// against: the resident dataset on Run, the A·K sample on RunStream.
	// Candidate and medoid indices refer to it.
	ds *dataset.Dataset
	// stream marks a run whose points are not resident. Its scoring set
	// is the sample (toSource maps it back to source indices), and only
	// it credits stream counters, emits per-block telemetry and echoes
	// the stream parameters; resident reports carry none of them.
	stream   bool
	toSource []int
	// maxBlockLen is the largest block a streamed pass delivered, the
	// basis of the resident-peak gauge.
	maxBlockLen int

	cfg   Config
	rng   *randx.Rand
	stats Stats
	// innerWorkers bounds the goroutines of the data-parallel passes
	// (localities, dimension rows, assignment, outliers). It is set per
	// phase before any worker goroutine starts: the full budget during
	// initialization and refinement, the budget divided by the number of
	// concurrent restarts during the iterative phase. Zero selects
	// GOMAXPROCS, which keeps white-box tests that construct runners
	// directly on the old behaviour.
	innerWorkers int
	// makeEval builds each restart's trial evaluator; nil selects the
	// incremental engine. Tests install the naive reference here.
	makeEval func(*runner) evaluator
	// obs receives structured events; nil disables emission.
	obs obs.Observer
	// counters accumulates hot-path work, batched per worker chunk so
	// it stays cheap enough to keep always on.
	counters obs.Counters
	// metrics records quantitative telemetry at phase/restart/pass
	// boundaries, and work mirrors counters into the same registry;
	// nil (white-box tests) disables recording.
	metrics *runnerMetrics
	work    *obs.CounterSeries
	// series records per-iteration and per-block trajectories; nil —
	// the default, recording is opt-in via Config.Series — disables it.
	series *runnerSeries
}

// newEngine builds the runner for a validated cfg. resident is src's
// point set when it is held in memory, and then becomes the scoring
// set; nil marks a streamed run, whose scoring set initialize collects.
func newEngine(ctx context.Context, src PointSource, resident *dataset.Dataset, cfg Config) *runner {
	reg := cfg.Metrics
	if reg == nil {
		// A private registry keeps Stats.Metrics populated on every run;
		// callers opt into sharing by passing their own.
		reg = metrics.NewRegistry()
	}
	r := &runner{ctx: ctx, src: src, ds: resident, stream: resident == nil,
		cfg: cfg, rng: randx.New(cfg.Seed), obs: cfg.Observer,
		metrics: newRunnerMetrics(reg), series: newRunnerSeries(cfg.Series),
		work: obs.NewCounterSeries(reg, "proclus", obs.DistanceEvals, obs.CoordsVisited,
			obs.PointsScanned, obs.DistCacheHits, obs.DistCacheRecomputes)}
	if r.stream {
		r.work.EnableStream("peak resident point storage of the streamed engine (sample + block buffers)")
	}
	return r
}

// emit forwards an event to the attached observer. The nil check is
// the disabled fast path: no interface call happens without an
// observer. Emission sites that must allocate to build their event
// (copying slices) guard on r.obs != nil themselves.
func (r *runner) emit(e obs.Event) {
	if r.obs != nil {
		e.Algorithm = "proclus"
		r.obs.Observe(e)
	}
}

// cancelled reports a pending context cancellation. A nil context
// (white-box tests construct runners directly) never cancels.
func (r *runner) cancelled() error {
	if r.ctx == nil {
		return nil
	}
	select {
	case <-r.ctx.Done():
		return r.ctx.Err()
	default:
		return nil
	}
}

func (r *runner) run() (*Result, error) {
	n, d := r.src.Len(), r.src.Dims()
	r.stats.DatasetPoints = n
	r.stats.DatasetDims = d
	runStart := time.Now()
	r.emit(obs.Event{Type: obs.EvRunStart, Points: n, Dims: d})
	r.metrics.observeRunStart(n, d)

	workers := parallel.Workers(r.cfg.Workers)

	r.emit(obs.Event{Type: obs.EvPhaseStart, Phase: "initialize"})
	start := time.Now()
	r.innerWorkers = workers
	candidates, err := r.initialize()
	if err != nil {
		return nil, err
	}
	r.stats.InitDuration = time.Since(start)
	r.emit(obs.Event{Type: obs.EvPhaseEnd, Phase: "initialize",
		Candidates: len(candidates), Seconds: r.stats.InitDuration.Seconds()})
	r.metrics.observePhase("initialize", r.stats.InitDuration.Seconds())
	r.work.Fold(&r.counters)

	best, totalIterations, err := r.iteratePhase(candidates, workers)
	if err != nil {
		return nil, err
	}

	r.emit(obs.Event{Type: obs.EvPhaseStart, Phase: "refine"})
	start = time.Now()
	r.innerWorkers = workers
	res, err := r.refine(best)
	if err != nil {
		return nil, err
	}
	r.stats.RefineDuration = time.Since(start)
	r.emit(obs.Event{Type: obs.EvPhaseEnd, Phase: "refine", Seconds: r.stats.RefineDuration.Seconds()})
	r.metrics.observePhase("refine", r.stats.RefineDuration.Seconds())

	res.Iterations = totalIterations
	res.Seed = r.cfg.Seed
	res.Config = r.cfg.reportConfig()
	if r.stream {
		res.Config.Stream = true
		if bp, ok := r.src.(interface{ BlockPoints() int }); ok {
			res.Config.BlockPoints = bp.BlockPoints()
		}
		// Peak resident point storage: the sample plus the two block
		// buffers of the double-buffered reader — the promised
		// O(sample + block).
		r.work.ObserveResidentPeak(r.ds.Len() + 2*r.maxBlockLen)
	}
	r.stats.Counters = r.counters.Snapshot()
	r.metrics.observeObjective(res.Objective)
	r.work.Fold(&r.counters)
	r.stats.Metrics = r.metrics.snapshot()
	r.stats.Series = r.cfg.Series.Snapshot()
	res.Stats = r.stats
	r.emit(obs.Event{Type: obs.EvRunEnd, Objective: res.Objective,
		Clusters: len(res.Clusters), Outliers: res.NumOutliers(),
		Iteration: totalIterations, Seconds: time.Since(runStart).Seconds()})
	return res, nil
}

// iteratePhase runs the hill-climb restarts over the scoring set r.ds
// and merges their outcomes, covering the full iterative phase: event
// emission, restart timing, the worker-budget split, and the
// deterministic best-trial merge. candidates index into r.ds. workers
// is the run's total goroutine budget; r.innerWorkers is left at each
// restart's share.
func (r *runner) iteratePhase(candidates []int, workers int) (*trialState, int, error) {
	r.emit(obs.Event{Type: obs.EvPhaseStart, Phase: "iterate"})
	start := time.Now()
	restarts := r.cfg.Restarts
	if restarts < 1 {
		restarts = 1
	}
	// Every restart hill-climbs on its own generator, split off the
	// master stream serially before any restart runs. The streams — and
	// with them every downstream decision — therefore depend only on the
	// seed, never on the Workers value or the goroutine schedule, so
	// concurrent and serial execution are bit-identical.
	rngs := make([]*randx.Rand, restarts)
	for i := range rngs {
		rngs[i] = r.rng.Split()
	}
	// Split the worker budget: up to `concurrent` restarts run at once,
	// each entitled to an equal share of goroutines for its data-parallel
	// passes. A single restart keeps the whole budget.
	concurrent := workers
	if concurrent > restarts {
		concurrent = restarts
	}
	r.innerWorkers = workers / concurrent
	if r.innerWorkers < 1 {
		r.innerWorkers = 1
	}
	outcomes := make([]restartOutcome, restarts)
	cancelErr := parallel.EachContext(r.ctx, restarts, concurrent, func(i int) {
		r.emit(obs.Event{Type: obs.EvRestartStart, Restart: i + 1})
		restartStart := time.Now()
		o := &outcomes[i]
		o.trial, o.iterations, o.trace, o.err = r.climb(candidates, i+1, rngs[i])
		o.duration = time.Since(restartStart)
		if o.err != nil {
			return
		}
		r.emit(obs.Event{Type: obs.EvRestartEnd, Restart: i + 1,
			Iteration: o.iterations, Objective: o.trial.objective, Seconds: o.duration.Seconds()})
		r.metrics.observeRestart(o.duration.Seconds())
		r.work.Fold(&r.counters)
	})
	// Merge in restart order so the trace, the per-restart stats and the
	// best-trial tie-break (strictly-lower objective wins, so equal
	// objectives keep the lowest restart index) are deterministic.
	var best *trialState
	totalIterations := 0
	for i := range outcomes {
		o := &outcomes[i]
		if o.err != nil {
			return nil, 0, o.err
		}
		if o.trial == nil {
			// Restart never ran: the context was cancelled before it was
			// dispatched.
			if cancelErr != nil {
				return nil, 0, cancelErr
			}
			return nil, 0, fmt.Errorf("proclus: restart %d missing without cancellation", i+1)
		}
		r.stats.ObjectiveTrace = append(r.stats.ObjectiveTrace, o.trace...)
		r.stats.Restarts = append(r.stats.Restarts, RestartStats{
			Iterations:    o.iterations,
			BestObjective: o.trial.objective,
			Duration:      o.duration,
		})
		totalIterations += o.iterations
		if best == nil || o.trial.objective < best.objective {
			best = o.trial
		}
	}
	if cancelErr != nil {
		return nil, 0, cancelErr
	}
	r.stats.IterateDuration = time.Since(start)
	r.emit(obs.Event{Type: obs.EvPhaseEnd, Phase: "iterate",
		Iteration: totalIterations, Seconds: r.stats.IterateDuration.Seconds()})
	r.metrics.observePhase("iterate", r.stats.IterateDuration.Seconds())
	return best, totalIterations, nil
}

// initialize selects the B·k candidate medoids and returns their
// scoring-set indices. The paper's method (InitGreedy) draws an A·k
// random sample and thins it by farthest-first traversal (§2.1, Figure
// 3); InitRandom draws candidates uniformly — from every point on a
// resident run, which needs no sample, and from the sample on a
// streamed run, whose scoring set the sample becomes. A resident run
// reads the sample rows by index; a streamed run collects them in one
// pass.
func (r *runner) initialize() ([]int, error) {
	n := r.src.Len()
	medoidCount := r.cfg.MedoidFactor * r.cfg.K
	if r.cfg.InitMethod == InitRandom && !r.stream {
		return randomCandidates(r.rng, n, medoidCount)
	}
	sampleSize := r.cfg.SampleFactor * r.cfg.K
	if sampleSize > n {
		sampleSize = n
	}
	sampleIdx, err := sample.WithoutReplacement(r.rng, n, sampleSize)
	if err != nil {
		return nil, fmt.Errorf("proclus: initialization sample: %w", err)
	}
	m := len(sampleIdx)
	at := func(i int) []float64 { return r.ds.Point(sampleIdx[i]) }
	if r.stream {
		if r.ds, err = r.collectSample(sampleIdx); err != nil {
			return nil, err
		}
		r.toSource = sampleIdx
		at = r.ds.Point
	}
	if r.cfg.InitMethod == InitRandom {
		return randomCandidates(r.rng, m, medoidCount)
	}
	if medoidCount > m {
		medoidCount = m
	}
	picks, err := r.farthestFirst(m, medoidCount, at)
	if err != nil || r.stream {
		return picks, err
	}
	// The resident scoring set is the whole dataset: map the sample
	// positions back to dataset indices.
	for i, p := range picks {
		picks[i] = sampleIdx[p]
	}
	return picks, nil
}

// randomCandidates draws count (at most n) distinct indices of [0, n).
func randomCandidates(rng *randx.Rand, n, count int) ([]int, error) {
	if count > n {
		count = n
	}
	cands, err := sample.WithoutReplacement(rng, n, count)
	if err != nil {
		return nil, fmt.Errorf("proclus: random candidate selection: %w", err)
	}
	return cands, nil
}

// collectSample gathers the coordinates of the sampled points, in
// sample order, in one block pass. Blocks arrive in ascending index
// order, so a sorted view of the sample indices is consumed with a
// single monotonic cursor — no per-point map lookup.
func (r *runner) collectSample(idx []int) (*dataset.Dataset, error) {
	d := r.src.Dims()
	flat := make([]float64, len(idx)*d)
	type pick struct{ idx, slot int }
	sorted := make([]pick, len(idx))
	for slot, p := range idx {
		sorted[slot] = pick{idx: p, slot: slot}
	}
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].idx < sorted[b].idx })
	cursor := 0
	err := r.pass("sample", func(b *dataset.Block) error {
		end := b.Start() + b.Len()
		for cursor < len(sorted) && sorted[cursor].idx < end {
			p := sorted[cursor]
			copy(flat[p.slot*d:(p.slot+1)*d], b.Point(p.idx-b.Start()))
			cursor++
		}
		r.counters[obs.PointsScanned].Add(int64(b.Len()))
		return nil
	})
	if err != nil {
		return nil, err
	}
	smp, err := dataset.FromFlat(d, flat)
	if err != nil {
		return nil, err
	}
	// The streamed path validates what it holds resident; the full
	// dataset is the source's responsibility.
	if err := smp.Validate(); err != nil {
		return nil, err
	}
	return smp, nil
}

// farthestFirst thins m sample points, addressed by at, to count
// candidate medoids by greedy farthest-first traversal over the
// full-dimensional segmental distance (paper Figure 3). The traversal
// tallies its evaluations per chunk, so the distance closure stays free
// of per-call atomics; each evaluation visits every dimension.
func (r *runner) farthestFirst(m, count int, at func(i int) []float64) ([]int, error) {
	var evals atomic.Int64
	picks, err := greedy.FarthestFirstCounted(r.rng, m, count, r.innerWorkers,
		func(i, j int) float64 { return dist.SegmentalAll(at(i), at(j)) }, &evals)
	if err != nil {
		return nil, fmt.Errorf("proclus: greedy medoid selection: %w", err)
	}
	r.counters[obs.DistanceEvals].Add(evals.Load())
	r.counters[obs.CoordsVisited].Add(evals.Load() * int64(r.src.Dims()))
	return picks, nil
}

// trialState is one evaluated clustering during the hill climb.
type trialState struct {
	medoids    []int   // dataset indices, len k
	dims       [][]int // per-medoid dimension sets
	assign     []int   // per-point cluster index (no outliers yet)
	sizes      []int   // per-cluster point counts
	objective  float64
	badMedoids []int // positions (0..k-1) of bad medoids within medoids
}

// restartOutcome collects one hill-climb restart's results so the
// restart engine can merge them in restart order after concurrent
// execution.
type restartOutcome struct {
	trial      *trialState
	iterations int
	trace      []float64
	duration   time.Duration
	err        error
}

// climb performs the hill climb of §2.2 and returns the best trial, the
// trial count, and the objective of every evaluated trial in order.
// restart is the 1-based restart index, used only for event context.
// rng is the restart's private generator: climb is called concurrently
// for different restarts and must not touch shared mutable state beyond
// the atomic counters and the (concurrency-safe) observer.
func (r *runner) climb(candidates []int, restart int, rng *randx.Rand) (*trialState, int, []float64, error) {
	k := r.cfg.K
	if len(candidates) < k {
		return nil, 0, nil, fmt.Errorf("proclus: only %d candidate medoids for k = %d", len(candidates), k)
	}
	perm := rng.Perm(len(candidates))
	current := make([]int, k)
	for i := 0; i < k; i++ {
		current[i] = candidates[perm[i]]
	}

	// The evaluator is restart-private: the incremental engine's
	// distance cache and trial scratch are owned by this goroutine, so
	// concurrent restarts share nothing and the worker-determinism
	// guarantee is untouched.
	ev := r.newEvaluator()
	rs := r.series.restart(restart)
	var best *trialState
	var trace []float64
	bestObjective := math.Inf(1)
	noImprove := 0
	iterations := 0
	for {
		iterations++
		trialStart := time.Now()
		trial := ev.evaluate(current)
		trace = append(trace, trial.objective)
		improved := trial.objective < bestObjective
		if improved {
			if !math.IsInf(bestObjective, 1) {
				r.metrics.observeObjectiveDelta(bestObjective - trial.objective)
			}
			bestObjective = trial.objective
			best = ev.adopt(trial)
			best.badMedoids = r.findBadMedoids(best)
			noImprove = 0
		} else {
			noImprove++
		}
		if r.series != nil {
			rs.record(iterations, trial.objective, bestObjective, improved,
				len(best.badMedoids), ev.cacheHitRate())
		}
		r.emit(obs.Event{Type: obs.EvIteration, Restart: restart, Iteration: iterations,
			Objective: trial.objective, Best: bestObjective, Improved: improved,
			Seconds: time.Since(trialStart).Seconds()})
		if noImprove >= r.cfg.MaxNoImprove || iterations >= r.cfg.MaxIterations {
			break
		}
		if err := r.cancelled(); err != nil {
			return nil, 0, nil, err
		}
		next, ok := r.replaceBad(best, candidates, rng)
		if !ok {
			// Every candidate already serves as a medoid; no neighbouring
			// vertex exists in the search graph.
			break
		}
		if r.obs != nil {
			r.emit(obs.Event{Type: obs.EvMedoidSwap, Restart: restart, Iteration: iterations,
				Replaced: append([]int(nil), best.badMedoids...)})
		}
		current = next
	}
	return best, iterations, trace, nil
}

// assignChunk is one worker's share of a hill-climb assignment pass:
// nearest medoid for scoring-set points [lo, hi), counters batched per
// chunk.
func (r *runner) assignChunk(medoidPoints [][]float64, dims [][]int,
	metric func(pt, medoid []float64, dims []int) float64, assign []int, lo, hi int) {
	for p := lo; p < hi; p++ {
		assign[p] = nearestMedoid(r.ds.Point(p), medoidPoints, dims, metric)
	}
	evals := int64(hi-lo) * int64(len(medoidPoints))
	r.counters[obs.DistanceEvals].Add(evals)
	r.counters[obs.CoordsVisited].Add(int64(hi-lo) * dimsTotal(dims))
	r.counters[obs.PointsScanned].Add(int64(hi - lo))
}

// tallySizes recounts cluster sizes from an assignment vector.
func tallySizes(assign, sizes []int) {
	for i := range sizes {
		sizes[i] = 0
	}
	for _, a := range assign {
		sizes[a]++
	}
}

// pointMetric returns the configured point-to-medoid distance over a
// dimension set.
func (r *runner) pointMetric() func(pt, medoid []float64, dims []int) float64 {
	if r.cfg.AssignMetric == MetricManhattan {
		return func(pt, medoid []float64, dims []int) float64 {
			return dist.Segmental(pt, medoid, dims) * float64(len(dims))
		}
	}
	return func(pt, medoid []float64, dims []int) float64 {
		return dist.Segmental(pt, medoid, dims)
	}
}

// evaluateClustersInto computes the paper's objective (Figure 6) over
// the scoring set — the mean, over all points, of the average distance
// along each cluster dimension between the point and its cluster
// centroid — accumulating into caller-owned buffers (k centroid rows of
// ds.Dims() each, k deviation slots) that the incremental engine reuses
// across iterations.
func (r *runner) evaluateClustersInto(assign []int, sizes []int, dims [][]int,
	centroids [][]float64, devs []float64) float64 {
	// This pass stays serial: floating-point accumulation order must not
	// depend on the worker count, or the hill climb's accept/reject
	// decisions (and hence the whole result) could differ between runs
	// configured with different Workers values. The locality and
	// assignment passes, whose outputs are integers, carry the
	// parallelism instead.
	n := r.ds.Len()
	for i := range centroids {
		c := centroids[i]
		for j := range c {
			c[j] = 0
		}
	}
	for p := 0; p < n; p++ {
		pt := r.ds.Point(p)
		c := centroids[assign[p]]
		for j, v := range pt {
			c[j] += v
		}
	}
	for i, c := range centroids {
		if sizes[i] == 0 {
			continue
		}
		inv := 1 / float64(sizes[i])
		for j := range c {
			c[j] *= inv
		}
	}
	// Sum of per-dimension absolute deviations to the centroid,
	// restricted to each cluster's dimensions.
	for i := range devs {
		devs[i] = 0
	}
	for p := 0; p < n; p++ {
		pt := r.ds.Point(p)
		i := assign[p]
		c := centroids[i]
		var s float64
		for _, j := range dims[i] {
			s += math.Abs(pt[j] - c[j])
		}
		devs[i] += s / float64(len(dims[i]))
	}
	var total float64
	for i := range devs {
		total += devs[i] // devs already sums w_i contributions per point
	}
	return total / float64(len(assign))
}

// findBadMedoids returns the positions of bad medoids in a trial: the
// medoid of the smallest cluster, plus any medoid whose cluster holds
// fewer than (N/k)·minDeviation points (paper §2.2).
func (r *runner) findBadMedoids(t *trialState) []int {
	k := len(t.sizes)
	smallest := 0
	for i := 1; i < k; i++ {
		if t.sizes[i] < t.sizes[smallest] {
			smallest = i
		}
	}
	threshold := float64(r.ds.Len()) / float64(k) * r.cfg.MinDeviation
	bad := []int{smallest}
	for i := 0; i < k; i++ {
		if i != smallest && float64(t.sizes[i]) < threshold {
			bad = append(bad, i)
		}
	}
	sort.Ints(bad)
	return bad
}

// replaceBad builds the next trial's medoid set by substituting random
// unused candidates for the bad medoids of the best set. It reports
// false when no unused candidates remain. rng is the calling restart's
// private generator.
func (r *runner) replaceBad(best *trialState, candidates []int, rng *randx.Rand) ([]int, bool) {
	inUse := make(map[int]bool, len(best.medoids))
	for _, m := range best.medoids {
		inUse[m] = true
	}
	var free []int
	for _, c := range candidates {
		if !inUse[c] {
			free = append(free, c)
		}
	}
	if len(free) == 0 {
		return nil, false
	}
	next := append([]int(nil), best.medoids...)
	rng.Shuffle(len(free), func(a, b int) { free[a], free[b] = free[b], free[a] })
	for i, pos := range best.badMedoids {
		if i >= len(free) {
			break
		}
		next[pos] = free[i]
	}
	return next, true
}

// refine performs the refinement phase (§2.3): dimension sets from the
// best trial's clusters, then one fused pass over the source that
// assigns every point, flags the outliers outside every medoid's sphere
// of influence and sums the cluster centroids, then the final score.
// SkipRefinement keeps the hill climb's dimension sets and skips outlier
// detection and scoring; a resident run then also keeps the hill
// climb's assignment, which already covers every point.
//
// Worker- and block-size-invariance: within a block, the assignment and
// outlier decisions are data-parallel integer writes to disjoint assign
// slots; every floating-point accumulation (centroid sums, deviations)
// runs serially in global point order, because blocks arrive in order
// and the serial loops walk each block in order.
func (r *runner) refine(best *trialState) (*Result, error) {
	k := len(best.medoids)
	medoidPoints := make([][]float64, k)
	for i, m := range best.medoids {
		medoidPoints[i] = r.ds.Point(m)
	}
	dims := best.dims
	var delta []float64 // spheres of influence; nil skips outlier detection
	if !r.cfg.SkipRefinement {
		clusters := make([][]int, k)
		for p, a := range best.assign {
			clusters[a] = append(clusters[a], p)
		}
		dims = r.findDimensions(best.medoids, clusters)
		delta = r.sphereRadii(medoidPoints, dims)
	}

	n, d := r.src.Len(), r.src.Dims()
	keep := r.cfg.SkipRefinement && !r.stream
	assign := make([]int, n)
	if keep {
		copy(assign, best.assign)
	}
	sums := make([][]float64, k)
	for i := range sums {
		sums[i] = make([]float64, d)
	}
	sizes := make([]int, k)
	metric := r.pointMetric()
	coords := dimsTotal(dims)
	passStart := time.Now()
	err := r.pass("assign", func(b *dataset.Block) error {
		bn := b.Len()
		if !keep {
			parallel.For(bn, r.innerWorkers, func(lo, hi int) {
				// The outlier test's early break makes the distance count
				// data-dependent; accumulate locally and add once per
				// chunk. Each point's count is chunking-independent, so
				// the total still matches a serial scan exactly.
				var t evalTally
				for i := lo; i < hi; i++ {
					pt := b.Point(i)
					a := nearestMedoid(pt, medoidPoints, dims, metric)
					t.evals += int64(k)
					t.coords += coords
					if delta != nil && outsideSpheres(pt, medoidPoints, dims, delta, &t) {
						a = OutlierID
					}
					assign[b.Index(i)] = a
				}
				t.credit(&r.counters)
				r.counters[obs.PointsScanned].Add(int64(hi - lo))
			})
		}
		for i := 0; i < bn; i++ {
			a := assign[b.Index(i)]
			if a == OutlierID {
				continue
			}
			cs := sums[a]
			for j, v := range b.Point(i) {
				cs[j] += v
			}
			sizes[a]++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !keep {
		r.metrics.observeAssign(int64(n), time.Since(passStart).Seconds())
	}

	res := &Result{Clusters: make([]Cluster, k), Assignments: assign}
	members := make([][]int, k)
	for i, size := range sizes {
		if size > 0 {
			members[i] = make([]int, 0, size)
		}
	}
	for p, a := range assign {
		if a != OutlierID {
			members[a] = append(members[a], p)
		}
	}
	for i := range res.Clusters {
		centroid := sums[i]
		if sizes[i] > 0 {
			inv := 1 / float64(sizes[i])
			for j := range centroid {
				centroid[j] *= inv
			}
		} else {
			centroid = append(centroid[:0], medoidPoints[i]...)
		}
		medoid := best.medoids[i]
		if r.toSource != nil {
			medoid = r.toSource[medoid]
		}
		res.Clusters[i] = Cluster{Medoid: medoid, Dimensions: dims[i],
			Members: members[i], Centroid: centroid}
	}

	switch {
	case r.cfg.SkipRefinement:
		res.Objective = best.objective
	case r.stream:
		res.Objective, err = r.scorePass(res)
	default:
		res.Objective = r.scoreMembers(res)
	}
	return res, err
}

// nearestMedoid returns the position of the medoid nearest pt under
// metric over each medoid's dimension set (paper Figure 5). Ties break
// toward the lower position, so the result is deterministic.
func nearestMedoid(pt []float64, medoidPoints [][]float64, dims [][]int,
	metric func(pt, medoid []float64, dims []int) float64) int {
	bestIdx, bestDist := 0, math.Inf(1)
	for i := range medoidPoints {
		if d := metric(pt, medoidPoints[i], dims[i]); d < bestDist {
			bestIdx, bestDist = i, d
		}
	}
	return bestIdx
}

// scorePass computes the final quality measure over the refined
// partition in one more block pass, summing each cluster's deviations
// in point order and then the per-cluster sums.
func (r *runner) scorePass(res *Result) (float64, error) {
	devs := make([]float64, len(res.Clusters))
	err := r.pass("score", func(b *dataset.Block) error {
		for i := 0; i < b.Len(); i++ {
			a := res.Assignments[b.Index(i)]
			if a == OutlierID {
				continue
			}
			cl := &res.Clusters[a]
			devs[a] += dist.Segmental(b.Point(i), cl.Centroid, cl.Dimensions)
		}
		r.counters[obs.PointsScanned].Add(int64(b.Len()))
		return nil
	})
	if err != nil {
		return 0, err
	}
	var total float64
	points := 0
	for i, cl := range res.Clusters {
		total += devs[i]
		points += len(cl.Members)
	}
	if points == 0 {
		return 0, nil
	}
	return total / float64(points), nil
}

// scoreMembers is scorePass for a resident run: it reads the members
// straight from the scoring set and keeps one running sum across
// clusters. The two summation orders round differently, and each is
// pinned by its own report golden.
func (r *runner) scoreMembers(res *Result) float64 {
	var total float64
	points := 0
	for _, cl := range res.Clusters {
		for _, p := range cl.Members {
			total += dist.Segmental(r.ds.Point(p), cl.Centroid, cl.Dimensions)
		}
		points += len(cl.Members)
	}
	r.counters[obs.PointsScanned].Add(int64(len(res.Assignments)))
	if points == 0 {
		return 0
	}
	return total / float64(points)
}

// sphereRadii returns each medoid's sphere of influence Δ_i: the
// minimum, over the other medoids, of the segmental distance w.r.t.
// D_i (paper §2.3).
func (r *runner) sphereRadii(medoidPoints [][]float64, dims [][]int) []float64 {
	delta := make([]float64, len(medoidPoints))
	var t evalTally
	for i := range medoidPoints {
		delta[i] = math.Inf(1)
		for j := range medoidPoints {
			if i == j {
				continue
			}
			t.evals++
			t.coords += int64(len(dims[i]))
			if d := dist.Segmental(medoidPoints[i], medoidPoints[j], dims[i]); d < delta[i] {
				delta[i] = d
			}
		}
	}
	t.credit(&r.counters)
	return delta
}

// outsideSpheres reports whether pt exceeds Δ_i for every medoid i,
// probing in medoid order and stopping at the first sphere that holds
// it; the evaluations it ran are tallied into t.
func outsideSpheres(pt []float64, medoidPoints [][]float64, dims [][]int,
	delta []float64, t *evalTally) bool {
	for i := range medoidPoints {
		t.evals++
		t.coords += int64(len(dims[i]))
		if dist.Segmental(pt, medoidPoints[i], dims[i]) <= delta[i] {
			return false
		}
	}
	return true
}

// evalTally accumulates one worker chunk's distance work so the hot
// loops pay one batch of atomic adds per chunk.
type evalTally struct {
	evals  int64 // distance evaluations
	coords int64 // coordinates those evaluations visited
}

// credit adds the tally to the run counters.
func (t *evalTally) credit(c *obs.Counters) {
	c[obs.DistanceEvals].Add(t.evals)
	c[obs.CoordsVisited].Add(t.coords)
}

// dimsTotal is the summed dimension-set size Σᵢ |dims[i]| — the
// coordinate cost of one full k-way evaluation.
func dimsTotal(dims [][]int) int64 {
	var t int64
	for _, d := range dims {
		t += int64(len(d))
	}
	return t
}
