package main

import (
	"context"
	"encoding/json"
	"time"

	"proclus"
)

// traced is the separate traced run behind the per-layer metrics. Each
// cycle runs, per input, the untraced operation at workers = nproc
// (the base of trace.overhead_frac and parallel.speedup), the same
// operation traced, the untraced operation at workers = 1, and one
// bare pass over the input file. Tracing covers only the traced
// operation and the bare pass. trace.overhead_frac is the median over
// inputs of traced / untraced wall time − 1, so input-to-input
// differences cancel.
func (b *bench) traced(ctx context.Context) ([]metric, []span, error) {
	if err := b.setup(1); err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	var untracedN, untraced1, tracedN []opResult
	var overhead []float64
	err := b.cycles(func(c int) error {
		for _, in := range b.ins {
			// Alternate which of the two runs first, so neither always
			// meets the heap the other left behind.
			var wall [2]float64 // untraced, traced
			for _, traced := range [2]bool{c%2 == 1, c%2 == 0} {
				t, dst, k := (*tracer)(nil), &untracedN, 0
				if traced {
					t, dst, k = tr, &tracedN, 1
				}
				if r, ok := b.do(ctx, in, b.nproc, t); ok {
					*dst = append(*dst, r)
					wall[k] = r.wall.Seconds()
				}
			}
			if wall[0] > 0 && wall[1] > 0 {
				overhead = append(overhead, wall[1]/wall[0]-1)
			}
			if r, ok := b.do(ctx, in, 1, nil); ok {
				untraced1 = append(untraced1, r)
			}
			if err := probeScan(ctx, in, tr); err != nil {
				return err
			}
			if c == 0 && b.w.stream {
				if err := probeLoad(in, tr); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	ms := layerMetrics(tr.spans, b.w.dims, untracedN, untraced1, tracedN, overhead, b.nproc)
	return ms, tr.spans, nil
}

// probeScan makes one bare pass over the input file with a no-op
// callback, traced as its own root pass span.
func probeScan(ctx context.Context, in input, tr *tracer) error {
	src, err := proclus.OpenFileSource(in.path, 0)
	if err != nil {
		return err
	}
	return traceSource(src, tr).scan(ctx)
}

// probeLoad times LoadFile on the input of a workload whose operation
// does not load it, as a root load span.
func probeLoad(in input, tr *tracer) error {
	id := tr.begin("load", 0)
	_, err := proclus.LoadFile(in.path, true)
	tr.end(id)
	return err
}

// layerMetrics derives the per-layer metrics from the spans and from
// the operations' public Result.Stats.
func layerMetrics(spans []span, dims int, untracedN, untraced1, tracedN []opResult, overhead []float64, nproc int) []metric {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	// Per traced operation: its streamed passes, blocks and callbacks,
	// hill-climb trials and restart self time. An operation that
	// streams nothing takes its pass figures from the bare passes.
	var loads, trials, restartSelf, scanMBs []float64
	var opPass, probePass []passStats
	for _, root := range children[0] {
		switch root.Name {
		case "operation":
			var ps passStats
			self := 0.0
			walk(children, root.ID, func(s span) {
				switch s.Name {
				case "load":
					loads = append(loads, s.seconds())
				case "trial":
					trials = append(trials, s.seconds())
				case "restart":
					self += selfTime(s, children[s.ID])
				case "pass":
					ps.add(s, children, dims)
				}
			})
			opPass = append(opPass, ps)
			restartSelf = append(restartSelf, self)
		case "pass":
			var ps passStats
			ps.add(root, children, dims)
			probePass = append(probePass, ps)
			scanMBs = append(scanMBs, ps.bytes/1e6/ps.passS)
		case "load":
			loads = append(loads, root.seconds())
		}
	}
	pass := opPass
	if len(opPass) == 0 || opPass[0].passes == 0 {
		pass = probePass
	}
	field := func(f func(passStats) float64) float64 {
		xs := make([]float64, len(pass))
		for i, p := range pass {
			xs[i] = f(p)
		}
		return median(xs)
	}
	stat := func(f func(opResult) float64) float64 {
		xs := make([]float64, len(untracedN))
		for i, r := range untracedN {
			xs[i] = f(r)
		}
		return median(xs)
	}
	counter := func(name string) float64 {
		return stat(func(r opResult) float64 { return counters(r.res)[name] })
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	wallN := stat(func(r opResult) float64 { return r.wall.Seconds() })
	wall1 := median(walls(untraced1))
	wallT := median(walls(tracedN))
	hits, recomputes := counter("distcache_hits"), counter("distcache_recomputes")
	evals := counter("distance_evals")
	speedup := ratio(wall1, wallN)
	secs := func(d time.Duration) float64 { return d.Seconds() }
	ms := []metric{
		{Name: "dataset.load_s", Value: median(loads), Unit: "s"},
		{Name: "dataset.pass_s", Value: field(func(p passStats) float64 { return p.passS }), Unit: "s"},
		{Name: "dataset.wait_s", Value: field(func(p passStats) float64 { return p.passS - p.callbackS }), Unit: "s"},
		{Name: "dataset.passes", Value: field(func(p passStats) float64 { return p.passes }), Unit: "count"},
		{Name: "dataset.blocks", Value: field(func(p passStats) float64 { return p.blocks }), Unit: "count"},
		{Name: "dataset.bytes", Value: field(func(p passStats) float64 { return p.bytes }), Unit: "bytes"},
		{Name: "dataset.scan_mb_s", Value: median(scanMBs), Unit: "MB/s"},
		{Name: "core.init_s", Value: stat(func(r opResult) float64 { return secs(r.res.Stats.InitDuration) }), Unit: "s"},
		{Name: "core.iterate_s", Value: stat(func(r opResult) float64 { return secs(r.res.Stats.IterateDuration) }), Unit: "s"},
		{Name: "core.refine_s", Value: stat(func(r opResult) float64 { return secs(r.res.Stats.RefineDuration) }), Unit: "s"},
		{Name: "core.trials", Value: stat(func(r opResult) float64 { return float64(r.res.Iterations) }), Unit: "count"},
		{Name: "core.trial_s.p50", Value: quantile(trials, 0.5), Unit: "s"},
		{Name: "core.trial_s.p90", Value: quantile(trials, 0.9), Unit: "s"},
		{Name: "core.restart_self_s", Value: median(restartSelf), Unit: "s"},
		{Name: "core.block_s", Value: field(func(p passStats) float64 { return p.callbackS }), Unit: "s"},
		{Name: "core.distcache_hit_ratio", Value: ratio(hits, hits+recomputes), Unit: "ratio"},
		{Name: "core.distcache_lookups", Value: hits + recomputes, Unit: "count"},
		{Name: "core.points_scanned", Value: counter("points_scanned"), Unit: "count"},
		{Name: "dist.evals", Value: evals, Unit: "count"},
		{Name: "dist.abandon_ratio", Value: ratio(counter("distance_evals_abandoned"), evals), Unit: "ratio"},
		{Name: "dist.coords_visited", Value: counter("coords_visited"), Unit: "count"},
		{Name: "dist.coords_per_eval", Value: ratio(counter("coords_visited"), evals), Unit: "coord/eval"},
		{Name: "parallel.speedup", Value: speedup, Unit: "x"},
		{Name: "parallel.efficiency", Value: speedup / float64(nproc), Unit: "ratio"},
		{Name: "parallel.wall_s", Value: wallN, Unit: "s"},
		{Name: "parallel.wall_s.w1", Value: wall1, Unit: "s"},
		{Name: "trace.overhead_frac", Value: median(overhead), Unit: "ratio"},
		{Name: "trace.wall_s", Value: wallT, Unit: "s"},
	}
	for i := range ms {
		ms[i].reported = true
	}
	return ms
}

// passStats sums the streamed passes of one traced operation (or one
// bare pass).
type passStats struct {
	passes, blocks, bytes float64
	passS, callbackS      float64
}

func (p *passStats) add(pass span, children map[int][]span, dims int) {
	p.passes++
	p.passS += pass.seconds()
	for _, blk := range children[pass.ID] {
		p.blocks++
		p.bytes += float64(blk.Points * dims * 8)
		for _, cb := range children[blk.ID] {
			p.callbackS += cb.seconds()
		}
	}
}

// walk visits every descendant of span id.
func walk(children map[int][]span, id int, fn func(span)) {
	for _, c := range children[id] {
		fn(c)
		walk(children, c.ID, fn)
	}
}

func walls(rs []opResult) []float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = r.wall.Seconds()
	}
	return xs
}

// counters reads the run's work counters by their report names, so a
// counter that a later change removes reads as zero instead of
// breaking the build.
func counters(r *proclus.Result) map[string]float64 {
	m := map[string]float64{}
	raw, err := json.Marshal(r.Stats.Counters)
	if err == nil {
		err = json.Unmarshal(raw, &m)
	}
	if err != nil {
		panic(err) // a struct of integer counters always round-trips
	}
	return m
}
