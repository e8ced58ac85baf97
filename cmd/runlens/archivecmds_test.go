package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"proclus/internal/obs"
	"proclus/internal/obs/archive"
)

// buildArchive writes a three-entry archive with fixed timestamps so
// run IDs — and therefore every subcommand's output — are fully
// deterministic: two identical-seed twins followed by a perturbed run
// whose distance-evaluation count and ARI moved.
func buildArchive(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "runs")
	st, err := archive.Open(dir, archive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	save := func(n int, evals int64, objective, ari float64) {
		rep := &obs.RunReport{
			Algorithm: "proclus",
			Dataset:   obs.DatasetInfo{Points: 1000, Dims: 20},
			Seed:      7,
			Config:    map[string]int{"k": 5, "l": 3},
			Phases: []obs.PhaseReport{
				{Name: "initialize", Seconds: 0.1},
				{Name: "iterate", Seconds: 0.5},
			},
			Objective: objective,
		}
		rep.Counters.DistanceEvals = evals
		rep.Counters.PointsScanned = 500
		run := archive.FromReport(rep)
		run.CreatedAt = time.Date(2026, 8, 8, 12, 0, n, 0, time.UTC)
		run.GitRev = "abc1234"
		run.Quality = map[string]float64{"ari": ari, "nmi": 0.8}
		if _, err := st.SaveRun(run); err != nil {
			t.Fatal(err)
		}
	}
	save(1, 2000, 12.5, 0.9)
	save(2, 2000, 12.5, 0.9)
	save(3, 2600, 13.0, 0.7)
	return dir
}

// TestArchiveGoldens locks the ls, identical-run diff, and trend
// outputs. Regenerate deliberately with
// `go test ./cmd/runlens -run TestArchiveGoldens -update`.
func TestArchiveGoldens(t *testing.T) {
	dir := buildArchive(t)
	cases := []struct {
		golden string
		args   []string
	}{
		{"golden_ls.txt", []string{"ls", "-archive", dir}},
		{"golden_diff.txt", []string{"diff", "-archive", dir, "@2", "@1"}},
		{"golden_trend.txt", []string{"trend", "-archive", dir}},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(tc.args, &buf); err != nil {
				t.Fatal(err)
			}
			goldenPath := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("output drifted from golden (re-run with -update if intentional)\n--- got ---\n%s\n--- want ---\n%s",
					buf.Bytes(), want)
			}
		})
	}
}

func TestDiffIdenticalRunsExitZero(t *testing.T) {
	dir := buildArchive(t)
	var buf bytes.Buffer
	if err := run([]string{"diff", "-archive", dir, "@2", "@1"}, &buf); err != nil {
		t.Fatalf("identical-seed runs reported as differing: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "no regressions") {
		t.Errorf("diff output missing the all-clear line:\n%s", buf.String())
	}
}

func TestDiffDetectsCounterAndQualityDeltas(t *testing.T) {
	dir := buildArchive(t)
	var buf bytes.Buffer
	err := run([]string{"diff", "-archive", dir, "@1", "@0"}, &buf)
	if err == nil {
		t.Fatalf("perturbed run diffed clean:\n%s", buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"REGRESSIONS:",
		"counters/distance_evals",
		"quality/ari",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
	// Wall-time deltas stay out of the exit code by default: only the
	// two deterministic movements are reported.
	if strings.Contains(out, "phase_seconds/") {
		t.Errorf("diff flagged nondeterministic phase time:\n%s", out)
	}
}

// TestDiffDetectsStreamBlockDelta archives two streamed runs that
// differ only in how many blocks their passes delivered (a block-size
// change): diff must exit non-zero on the stream counters.
func TestDiffDetectsStreamBlockDelta(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "runs")
	st, err := archive.Open(dir, archive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, blocks := range []int64{36, 144} {
		rep := &obs.RunReport{Algorithm: "proclus", Seed: 7, Objective: 12.5,
			Dataset: obs.DatasetInfo{Points: 6000, Dims: 12}}
		rep.Counters.DistanceEvals = 85813
		rep.Counters.PointsScanned = 45360
		rep.Counters.StreamBlocks = blocks
		rep.Counters.StreamBytes = 1728000
		run := archive.FromReport(rep)
		run.CreatedAt = time.Date(2026, 8, 8, 12, 0, i, 0, time.UTC)
		if _, err := st.SaveRun(run); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := run([]string{"diff", "-archive", dir, "@1", "@0"}, &buf); err == nil {
		t.Fatalf("runs differing 4x in stream blocks diffed clean:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "counters/stream_blocks") {
		t.Errorf("diff output missing counters/stream_blocks:\n%s", buf.String())
	}
}

func TestDiffRefResolution(t *testing.T) {
	dir := buildArchive(t)
	if err := run([]string{"diff", "-archive", dir, "@9", "@0"}, &bytes.Buffer{}); err == nil {
		t.Error("out-of-range @N accepted")
	}
	if err := run([]string{"diff", "-archive", dir, "no-such-run", "@0"}, &bytes.Buffer{}); err == nil {
		t.Error("unknown run ID accepted")
	}
	if err := run([]string{"diff", "-archive", dir, "@0"}, &bytes.Buffer{}); err == nil {
		t.Error("single operand accepted")
	}
	// Diff by explicit run ID: the first entry's ID is derived from its
	// fixed timestamp.
	id := "20260808T120001.000000000Z-proclus"
	var buf bytes.Buffer
	if err := run([]string{"diff", "-archive", dir, id, "@1"}, &buf); err != nil {
		t.Errorf("diff by run ID failed: %v\n%s", err, buf.String())
	}
}

func TestTrendFirstMover(t *testing.T) {
	dir := buildArchive(t)
	var buf bytes.Buffer
	if err := run([]string{"trend", "-archive", dir, "-algorithm", "proclus"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "distance_evals") || !strings.Contains(out, "<- moved first") {
		t.Errorf("trend missing first-mover attribution:\n%s", out)
	}
	if !strings.Contains(out, "first moved at run 2") {
		t.Errorf("trend attributes the move to the wrong run:\n%s", out)
	}
	// points_scanned never moves, so it must not appear among movers.
	if strings.Contains(out, "points_scanned first moved") {
		t.Errorf("trend flagged a flat counter:\n%s", out)
	}
}

func TestArchiveCommandsRequireArchive(t *testing.T) {
	for _, sub := range []string{"ls", "diff", "trend"} {
		args := []string{sub}
		if sub == "diff" {
			args = append(args, "@0", "@1")
		}
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("runlens %s without -archive accepted", sub)
		}
	}
}
