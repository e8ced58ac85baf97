package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// small returns a workload shaped like the real ones but small enough
// for a unit test.
func small(stream bool) workload {
	return workload{name: "small", n: 3000, dims: 12, inputs: 2, stream: stream, setupRepeats: 1, ariFloor: 0.5}
}

func TestTamperedAssignmentCountsAsFailed(t *testing.T) {
	b := newBench(small(false), 1, 0, t.TempDir())
	b.log = &bytes.Buffer{}
	if err := b.setup(1); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	in := b.ins[0]
	if _, ok := b.do(ctx, in, b.nproc, nil); !ok {
		t.Fatalf("untampered operation failed: %s", b.log)
	}
	if _, ok := b.do(ctx, in, 1, nil); !ok {
		t.Fatalf("workers=1 operation failed: %s", b.log)
	}
	// Move one point to another cluster: the ARI barely changes, so
	// only the digest check can catch it.
	b.afterOp = func(in input) {
		data, err := os.ReadFile(in.out)
		if err != nil {
			t.Fatal(err)
		}
		if data[0] == '0' {
			data[0] = '1'
		} else {
			data[0] = '0'
		}
		if err := os.WriteFile(in.out, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := b.do(ctx, in, b.nproc, nil); ok {
		t.Fatal("tampered operation passed its check")
	}
	if len(b.ops) != 3 || b.failed() != 1 {
		t.Fatalf("attempted %d failed %d, want 3 and 1", len(b.ops), b.failed())
	}
	var out bytes.Buffer
	if err := report(&out, b.settings(1, false), nil, b); err != nil {
		t.Fatal(err)
	}
	res := lastResult(t, out.Bytes())
	if res.Correct || res.Failed != 1 {
		t.Fatalf("result %+v, want correct=false failed=1", res)
	}
}

func TestOperationBelowARIFloorFails(t *testing.T) {
	w := small(false)
	w.ariFloor = 1.01
	b := newBench(w, 1, 0, t.TempDir())
	b.log = &bytes.Buffer{}
	if err := b.setup(1); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.do(context.Background(), b.ins[0], b.nproc, nil); ok || b.failed() != 1 {
		t.Fatalf("operation below the ARI floor passed (failed=%d)", b.failed())
	}
}

// TestMetricsMatchBenchmarkJSON runs both kinds of run on small
// workloads of each entry point and checks that the result object
// carries exactly the metrics BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !equal(names, have) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, have)
	}
	for _, stream := range []bool{false, true} {
		for _, traced := range []bool{false, true} {
			b := newBench(small(stream), 7, 0, t.TempDir())
			var ms []metric
			var spans []span
			if traced {
				ms, spans, err = b.traced(context.Background())
				if len(spans) == 0 {
					t.Error("traced run recorded no spans")
				}
			} else {
				ms, err = b.endToEnd(context.Background())
			}
			if err != nil {
				t.Fatal(err)
			}
			if b.failed() != 0 {
				t.Fatalf("stream=%v traced=%v: %d operations failed", stream, traced, b.failed())
			}
			var out bytes.Buffer
			if err := report(&out, b.settings(1, traced), ms, b); err != nil {
				t.Fatal(err)
			}
			res := lastResult(t, out.Bytes())
			want := spec.EndToEnd
			if !traced {
				for _, m := range ms {
					if m.Value == 0 && m.reported {
						t.Errorf("stream=%v: end-to-end metric %s is 0", stream, m.Name)
					}
				}
			} else {
				want = spec.PerLayer
			}
			var wantNames, gotNames []string
			for _, m := range want {
				wantNames = append(wantNames, m.Name)
				if got, ok := res.Metrics[m.Name]; ok && got.Unit != m.Unit {
					t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
				}
			}
			for name := range res.Metrics {
				gotNames = append(gotNames, name)
			}
			if !equal(wantNames, gotNames) {
				t.Errorf("stream=%v traced=%v: metrics %v, BENCHMARK.json declares %v", stream, traced, gotNames, wantNames)
			}
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 0, End: 10}
	children := []span{{Start: 1, End: 3}, {Start: 2, End: 4}, {Start: 6, End: 7}, {Start: 9, End: 12}}
	// Covered: [1,4] + [6,7] + [9,10] = 5 of 10.
	if got := selfTime(parent, children); got != 5 {
		t.Fatalf("selfTime = %v, want 5", got)
	}
}

type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

func lastResult(t *testing.T, out []byte) result {
	t.Helper()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res
}

func equal(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
