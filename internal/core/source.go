package core

import (
	"context"
	"fmt"
	"time"

	"proclus/internal/dataset"
	"proclus/internal/obs"
)

// PointSource is the data abstraction the PROCLUS engine consumes:
// a point set of known shape that can be swept in contiguous blocks any
// number of times. The PROCLUS paper structures its full-data stages as
// single passes over disk-resident data (§3); PointSource is that pass
// contract. dataset.MemorySource adapts an in-memory Dataset (zero-copy
// blocks) and dataset.FileSource streams a binary file through a
// double-buffered BlockScanner — the engine produces bit-identical
// Results over either, for any block size and worker count.
type PointSource interface {
	// Len returns the number of points.
	Len() int
	// Dims returns the dimensionality of the points.
	Dims() int
	// Blocks calls fn for consecutive blocks covering the points in
	// index order; the *dataset.Block passed to fn is only valid during
	// the call. A non-nil ctx cancels the pass between blocks.
	Blocks(ctx context.Context, fn func(*dataset.Block) error) error
}

var (
	_ PointSource = (*dataset.MemorySource)(nil)
	_ PointSource = (*dataset.FileSource)(nil)
)

// pass sweeps the source once under a pass name and enforces the block
// contract: blocks arrive contiguous from index 0, carry the source's
// dimensionality and end at exactly src.Len(). A source that breaks it
// fails the run here, before fn could leave points unvisited or index
// past the assignment. Streamed runs also credit the stream counters,
// track the largest block for the residency gauge and — with an
// observer or series store attached — time and report each block
// (EvBlock events, per-block latency/throughput series); resident runs
// skip all stream telemetry.
func (r *runner) pass(name string, fn func(b *dataset.Block) error) error {
	n, d := r.src.Len(), r.src.Dims()
	instrumented := r.stream && (r.obs != nil || r.series != nil)
	var bs blockSeries
	if instrumented {
		bs = r.series.blocks(name)
	}
	next, block := 0, 0
	err := r.src.Blocks(r.ctx, func(b *dataset.Block) error {
		switch {
		case b.Dims() != d:
			return fmt.Errorf("proclus: %s pass: source delivered %d-dimensional points, want %d", name, b.Dims(), d)
		case b.Start() != next || b.Len() > n-next:
			return fmt.Errorf("proclus: %s pass: source delivered points [%d, %d), want the next block of [%d, %d)",
				name, b.Start(), b.Start()+b.Len(), next, n)
		}
		next += b.Len()
		if !r.stream {
			return fn(b)
		}
		r.counters[obs.StreamBlocks].Add(1)
		r.counters[obs.StreamBytes].Add(b.Bytes())
		if l := b.Len(); l > r.maxBlockLen {
			r.maxBlockLen = l
		}
		if !instrumented {
			return fn(b)
		}
		block++
		start := time.Now()
		err := fn(b)
		secs := time.Since(start).Seconds()
		bs.record(block, b.Len(), secs)
		r.emit(obs.Event{Type: obs.EvBlock, Phase: name,
			Block: block, Points: b.Len(), Seconds: secs})
		return err
	})
	if err != nil {
		return err
	}
	if next != n {
		return fmt.Errorf("proclus: %s pass: source delivered %d of %d points", name, next, n)
	}
	return nil
}
