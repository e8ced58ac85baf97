package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// collector records observed events for assertions.
type collector struct {
	mu     sync.Mutex
	events []Event
}

func (c *collector) Observe(e Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

func TestJSONTracerWritesOneLinePerEvent(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONTracer(&buf)
	tr.Observe(Event{Type: EvRunStart, Algorithm: "proclus", Points: 10, Dims: 3})
	tr.Observe(Event{Type: EvIteration, Restart: 1, Iteration: 2, Objective: 1.5, Improved: true})
	tr.Observe(Event{Type: EvRunEnd, Seconds: 0.25})
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), buf.String())
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatalf("line 2 is not JSON: %v", err)
	}
	if rec["type"] != string(EvIteration) {
		t.Fatalf("type = %v", rec["type"])
	}
	if _, ok := rec["t_ms"]; !ok {
		t.Fatalf("missing t_ms: %v", rec)
	}
	if rec["improved"] != true {
		t.Fatalf("improved not preserved: %v", rec)
	}
	// Zero-valued fields must be omitted so traces stay compact.
	if _, ok := rec["clusters"]; ok {
		t.Fatalf("zero field serialized: %v", rec)
	}
}

func TestJSONTracerConcurrent(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONTracer(&buf)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				tr.Observe(Event{Type: EvIteration, Iteration: j})
			}
		}()
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 400 {
		t.Fatalf("got %d lines, want 400", len(lines))
	}
	for _, l := range lines {
		if !json.Valid([]byte(l)) {
			t.Fatalf("interleaved write produced invalid JSON: %q", l)
		}
	}
}

func TestProgressLoggerFormats(t *testing.T) {
	var buf bytes.Buffer
	l := NewProgressLogger(&buf)
	l.Observe(Event{Type: EvRunStart, Algorithm: "proclus", Points: 100, Dims: 5})
	l.Observe(Event{Type: EvIteration, Algorithm: "proclus", Restart: 1, Iteration: 3, Objective: 2.5, Improved: true})
	l.Observe(Event{Type: EvIteration, Algorithm: "proclus", Restart: 1, Iteration: 4, Objective: 3.0}) // not improved: silent
	l.Observe(Event{Type: EvRunEnd, Algorithm: "proclus", Objective: 2.5, Clusters: 5, Outliers: 7, Seconds: 0.5})
	got := buf.String()
	for _, want := range []string{"run start: 100 points × 5 dims", "objective ↓ 2.5000", "run end"} {
		if !strings.Contains(got, want) {
			t.Fatalf("missing %q in:\n%s", want, got)
		}
	}
	if n := strings.Count(got, "\n"); n != 3 {
		t.Fatalf("got %d lines, want 3 (non-improving iteration must be silent):\n%s", n, got)
	}
}

func TestMulti(t *testing.T) {
	if Multi() != nil {
		t.Fatal("Multi() should be nil")
	}
	if Multi(nil, nil) != nil {
		t.Fatal("Multi(nil, nil) should be nil")
	}
	c1, c2 := &collector{}, &collector{}
	if got := Multi(nil, c1); got != Observer(c1) {
		t.Fatal("single observer should be returned unwrapped")
	}
	m := Multi(c1, nil, c2)
	m.Observe(Event{Type: EvRunStart})
	if len(c1.events) != 1 || len(c2.events) != 1 {
		t.Fatalf("fan-out failed: %d, %d", len(c1.events), len(c2.events))
	}
}

func TestCountersSnapshot(t *testing.T) {
	var c Counters
	c[DistanceEvals].Add(10)
	c[PointsScanned].Add(20)
	c[DenseUnitProbes].Add(30)
	s := c.Snapshot()
	if s.DistanceEvals != 10 || s.PointsScanned != 20 || s.DenseUnitProbes != 30 {
		t.Fatalf("snapshot = %+v", s)
	}
	var nilC *Counters
	if nilC.Snapshot() != (Snapshot{}) {
		t.Fatal("nil Counters snapshot not zero")
	}
}

func TestRunReportJSONStableOrder(t *testing.T) {
	rep := &RunReport{
		Algorithm: "proclus",
		Dataset:   DatasetInfo{Points: 10, Dims: 3},
		Seed:      7,
		Config:    map[string]int{"k": 2},
		Phases:    []PhaseReport{{Name: "initialize", Seconds: 0}},
		Counters:  Snapshot{DistanceEvals: 5},
		Clusters:  []ClusterReport{{ID: 0, Size: 10, Medoid: 4, Dimensions: []int{0, 1}}},
	}
	var a, b bytes.Buffer
	if err := rep.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("report marshaling is not deterministic")
	}
	// Field order is declaration order: algorithm first, total last.
	s := a.String()
	if !strings.HasPrefix(s, "{\n  \"algorithm\"") {
		t.Fatalf("algorithm not first:\n%s", s)
	}
	if idx := strings.Index(s, "total_seconds"); idx < strings.Index(s, "counters") {
		t.Fatalf("total_seconds not after counters:\n%s", s)
	}
}

func TestRunReportWriteFile(t *testing.T) {
	rep := &RunReport{Algorithm: "clique"}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m["algorithm"] != "clique" {
		t.Fatalf("algorithm = %v", m["algorithm"])
	}
}

func TestStartProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has something to record.
	x := 0.0
	for i := 0; i < 1_000_00; i++ {
		x += float64(i) * 1.000001
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Fatalf("%s is empty", p)
		}
	}
}

func TestStartProfilesNoop(t *testing.T) {
	stop, err := StartProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}
