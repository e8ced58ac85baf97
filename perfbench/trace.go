package main

import (
	"context"
	"sort"
	"sync"
	"time"

	"proclus"
)

// span is one timed interval of a traced run. Spans of one operation
// share Run; Parent is the span that caused this one (0 for an
// operation's root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Run    int     `json:"run"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	// Points is the point count of a block span.
	Points int `json:"points,omitempty"`
}

func (s span) seconds() float64 { return s.End - s.Start }

// tracer keeps the spans of a traced run in memory. It records from
// the benchmark's own code only: around each step of an operation, on
// the public Config.Observer hook (phases, restarts, hill-climb
// trials), and in a PointSource wrapper (passes, blocks, callbacks).
// A nil *tracer records nothing, so untraced operations run the same
// code without it.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	run   int
	// runStep and phase are the open "run" step of the current
	// operation and its open phase; observer and source spans hang
	// from the innermost one.
	runStep, phase int
	restarts       map[int]int
	trialStart     map[int]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), restarts: map[int]int{}, trialStart: map[int]float64{}}
}

func (t *tracer) now() float64 { return time.Since(t.epoch).Seconds() }

// begin opens a span under parent and returns its id. Opening a root
// span (parent 0) starts a new operation.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.beginLocked(name, parent, t.now())
}

func (t *tracer) beginLocked(name string, parent int, at float64) int {
	if parent == 0 {
		t.run++
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: at, End: -1})
	if name == "run" {
		t.runStep = id
	}
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.endLocked(id, t.now())
}

func (t *tracer) endLocked(id int, at float64) {
	t.spans[id-1].End = at
	if id == t.runStep {
		t.runStep = 0
	}
}

// observer returns the tracer as a Config.Observer, or nil when
// tracing is off so the run keeps its observer-free fast path.
func (t *tracer) observer() proclus.Observer {
	if t == nil {
		return nil
	}
	return t
}

// Observe turns run events into spans: a span per phase, per restart
// and per hill-climb trial (from the restart's previous trial boundary
// to the trial's iteration event).
func (t *tracer) Observe(e proclus.Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	at := t.now()
	switch e.Type {
	case "phase_start":
		t.phase = t.beginLocked(e.Phase, t.runStep, at)
	case "phase_end":
		if t.phase != 0 {
			t.endLocked(t.phase, at)
			t.phase = 0
		}
	case "restart_start":
		t.restarts[e.Restart] = t.beginLocked("restart", t.parentLocked(), at)
		t.trialStart[e.Restart] = at
	case "iteration":
		if r, ok := t.restarts[e.Restart]; ok {
			id := t.beginLocked("trial", r, t.trialStart[e.Restart])
			t.endLocked(id, at)
			t.trialStart[e.Restart] = at
		}
	case "restart_end":
		if r, ok := t.restarts[e.Restart]; ok {
			t.endLocked(r, at)
			delete(t.restarts, e.Restart)
			delete(t.trialStart, e.Restart)
		}
	}
}

func (t *tracer) parentLocked() int {
	if t.phase != 0 {
		return t.phase
	}
	return t.runStep
}

// block is what the wrapper needs of a streamed block.
type block interface{ Len() int }

// blockSource is proclus.PointSource with its block type left as a
// type parameter: the facade exports the interface but not the block
// type, so the wrapper takes it by inference from the wrapped source.
type blockSource[B block] interface {
	Len() int
	Dims() int
	Blocks(ctx context.Context, fn func(B) error) error
}

// tracedSource records a span per pass (the Blocks call), per block
// (from the previous callback's end to this callback's end, so it
// covers fetching and decoding the block) and per callback.
type tracedSource[B block] struct {
	inner blockSource[B]
	tr    *tracer
}

func traceSource[B block](src blockSource[B], tr *tracer) *tracedSource[B] {
	return &tracedSource[B]{inner: src, tr: tr}
}

func (s *tracedSource[B]) Len() int  { return s.inner.Len() }
func (s *tracedSource[B]) Dims() int { return s.inner.Dims() }

func (s *tracedSource[B]) Blocks(ctx context.Context, fn func(B) error) error {
	t := s.tr
	t.mu.Lock()
	pass := t.beginLocked("pass", t.parentLocked(), t.now())
	t.mu.Unlock()
	mark := -1.0
	err := s.inner.Blocks(ctx, func(b B) error {
		t.mu.Lock()
		now := t.now()
		if mark < 0 {
			mark = t.spans[pass-1].Start
		}
		blk := t.beginLocked("block", pass, mark)
		t.spans[blk-1].Points = b.Len()
		cb := t.beginLocked("callback", blk, now)
		t.mu.Unlock()
		err := fn(b)
		t.mu.Lock()
		mark = t.now()
		t.endLocked(cb, mark)
		t.endLocked(blk, mark)
		t.mu.Unlock()
		return err
	})
	t.end(pass)
	return err
}

// scan makes one bare pass over the source with a no-op callback.
func (s *tracedSource[B]) scan(ctx context.Context) error {
	return s.Blocks(ctx, func(B) error { return nil })
}

// selfTime is a span's duration minus the part of its interval that
// its children cover (children may overlap, as concurrent restarts
// under one phase do).
func selfTime(parent span, children []span) float64 {
	iv := make([][2]float64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered, curLo, curHi := 0.0, 0.0, -1.0
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return parent.seconds() - covered
}
