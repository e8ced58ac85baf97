package main

import (
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"proclus/internal/core"
	"proclus/internal/obs/archive"
	"proclus/internal/obs/metrics"
	"proclus/internal/obs/series"
	"proclus/internal/synth"
)

func writeData(t *testing.T) string {
	t.Helper()
	ds, _, err := synth.Generate(synth.Config{
		N: 1000, Dims: 8, K: 3, FixedDims: 3, MinSizeFraction: 0.2,
		OutlierFraction: -1, Seed: 61,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "d.bin")
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// wantAll fails the test when got lacks any of the substrings.
func wantAll(t *testing.T, what, got string, want ...string) {
	t.Helper()
	for _, w := range want {
		if !strings.Contains(got, w) {
			t.Errorf("%s missing %q:\n%s", what, w, got)
		}
	}
}

func TestListNames(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-list"}, &sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, name := range []string{"clique", "kmedoids", "orclus", "proclus"} {
		if !strings.Contains(got, name) {
			t.Errorf("-list output missing %q:\n%s", name, got)
		}
	}
}

// TestRunEachAlgorithm drives every registered algorithm through the
// CLI with its own parameter set and checks the generic output, the
// quality indices the labeled input enables, and each algorithm's own
// extras: dimension sets, the confusion matrix and purity for the
// algorithms that take k, CLIQUE's lattice, overlap and coverage, and
// ORCLUS's projected energy.
func TestRunEachAlgorithm(t *testing.T) {
	path := writeData(t)
	cases := []struct {
		algo string
		args []string
		want []string
	}{
		{"proclus", []string{"-k", "3", "-l", "3"},
			[]string{"objective:", "dimensions (1-based)", "confusion matrix", "purity:", "NMI:"}},
		{"clique", []string{"-tau", "0.02", "-mdl", "-highest"},
			[]string{"dimensions (1-based)", "dense units per subspace dimensionality", "average overlap:", "coverage:"}},
		{"orclus", []string{"-k", "3", "-l", "3"},
			[]string{"weighted projected energy", "confusion matrix", "purity:"}},
		{"kmedoids", []string{"-k", "3"}, []string{"confusion matrix", "purity:"}},
	}
	for _, tc := range cases {
		var sb strings.Builder
		args := append([]string{"-algo", tc.algo, "-in", path}, tc.args...)
		if err := run(args, &sb); err != nil {
			t.Fatalf("%s: %v", tc.algo, err)
		}
		got := sb.String()
		wantAll(t, tc.algo+" output", got, append([]string{tc.algo + ":", "clusters:", "ARI"}, tc.want...)...)
		if tc.algo == "clique" && strings.Contains(got, "confusion matrix") {
			t.Errorf("clique takes no k but printed a confusion matrix:\n%s", got)
		}
	}
}

// TestCliqueModes runs CLIQUE's reporting modes; -v lists every
// cluster's region description.
func TestCliqueModes(t *testing.T) {
	path := writeData(t)
	for _, flags := range [][]string{
		{"-highest", "-v"},
		{"-maximal"},
		{"-fixeddims", "2"},
		{"-mdl"},
		{"-maxdims", "2"},
	} {
		var sb strings.Builder
		args := append([]string{"-algo", "clique", "-in", path, "-xi", "10", "-tau", "0.02"}, flags...)
		if err := run(args, &sb); err != nil {
			t.Fatalf("%v: %v", flags, err)
		}
		if hasRegions := strings.Contains(sb.String(), "region "); hasRegions != (flags[len(flags)-1] == "-v") {
			t.Errorf("%v: region listing present = %v:\n%s", flags, hasRegions, sb.String())
		}
	}
}

// TestRejectsUnsupportedCombos pins the CLI contract: a flag the
// selected algorithm or source cannot honour fails with an error naming
// it, before the session writes any artifact.
func TestRejectsUnsupportedCombos(t *testing.T) {
	path := writeData(t)
	dir := t.TempDir()
	seriesPath := filepath.Join(dir, "s.json")
	csvPath := filepath.Join(dir, "data.csv")
	if err := os.WriteFile(csvPath, []byte("1,2\n3,4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	proclus := []string{"-algo", "proclus", "-in", path, "-k", "3", "-l", "3"}
	with := func(base []string, extra ...string) []string {
		return append(append([]string(nil), base...), extra...)
	}
	cases := []struct {
		args []string
		want []string
	}{
		{[]string{"-algo", "clique", "-in", path, "-k", "3"}, []string{"clique"}},
		{[]string{"-algo", "orclus", "-in", path, "-k", "3", "-l", "2", "-stream"}, []string{"orclus"}},
		{[]string{"-algo", "kmedoids", "-in", path, "-k", "3", "-workers", "4"}, []string{"kmedoids"}},
		{with(proclus, "-xi", "8"), []string{"proclus"}},
		{with(proclus, "-restarts", "2"), []string{"proclus"}},
		{[]string{"-algo", "clique", "-in", csvPath, "-stream"}, []string{"-stream", "binary"}},
		{with(proclus, "-block-points", "100"), []string{"-block-points", "-stream"}},
		{with(proclus, "-stream", "-normalize", "minmax"), []string{"-normalize", "-stream"}},
		{[]string{"-algo", "proclus", "-in", path, "-k", "3", "-stream", "-sweepl", "2:5"}, []string{"-sweepl", "-stream"}},
		{[]string{"-algo", "proclus", "-in", path, "-l", "3", "-stream", "-sweepk", "2:4"}, []string{"-sweepk", "-stream"}},
		{[]string{"-algo", "clique", "-in", path, "-sweepl", "2:5"}, []string{"-sweepl", "clique"}},
		{[]string{"-algo", "orclus", "-in", path, "-l", "2", "-sweepk", "2:4"}, []string{"-sweepk", "orclus"}},
		{[]string{"-algo", "proclus", "-in", path, "-sweepl", "2:5", "-sweepk", "2:4"}, []string{"-sweepk", "-sweepl"}},
		{with(proclus, "-sweepl", "2:5"), []string{"-l", "-sweepl"}},
		{with(proclus, "-sweepk", "2:4"), []string{"-k", "-sweepk"}},
		{[]string{"-algo", "proclus", "-in", path, "-k", "3", "-sweepl", "2:5", "-stall-iters", "1", "-stall-cancel"},
			[]string{"-stall-cancel", "-sweepl"}},
		{[]string{"-algo", "proclus", "-in", path, "-k", "3", "-sweepl", "2:5", "-tau", "0.1"}, []string{"-sweepl", "CLIQUE"}},
		{with(proclus, "-v"), []string{"-v", "proclus"}},
		{[]string{"-algo", "orclus", "-in", path, "-k", "3", "-l", "2", "-metrics-addr", "127.0.0.1:0"},
			[]string{"-metrics-addr", "orclus"}},
	}
	// Algorithms without per-iteration events refuse every flag that
	// would watch for them.
	for _, algo := range []string{"orclus", "kmedoids"} {
		base := []string{"-algo", algo, "-in", path, "-k", "3"}
		if algo == "orclus" {
			base = append(base, "-l", "2")
		}
		for _, extra := range [][]string{
			{"-series", seriesPath},
			{"-stall-iters", "5"},
			{"-stall-deadline", "1s"},
			{"-stall-cancel"},
		} {
			cases = append(cases, struct {
				args []string
				want []string
			}{with(base, extra...), []string{extra[0], algo, "unsupported"}})
		}
	}
	for _, tc := range cases {
		var sb strings.Builder
		err := run(tc.args, &sb)
		if err == nil {
			t.Errorf("%v accepted", tc.args)
			continue
		}
		wantAll(t, "error for "+strings.Join(tc.args[4:], " "), err.Error(), tc.want...)
	}
	if _, err := os.Stat(seriesPath); !os.IsNotExist(err) {
		t.Error("rejected -series still wrote a snapshot")
	}
	var sb strings.Builder
	if err := run([]string{"-algo", "dbscan", "-in", path}, &sb); err == nil ||
		!strings.Contains(err.Error(), "proclus") {
		t.Errorf("unknown algorithm error should list the registered names, got %v", err)
	}
}

// TestReportAssignArchive checks every algorithm's artifacts: the JSON
// report with dataset provenance and counters, the assignment CSV, the
// archived run with its quality indices, the bracketed JSONL trace and
// the profiles.
func TestReportAssignArchive(t *testing.T) {
	path := writeData(t)
	cases := []struct {
		algo    string
		args    []string
		quality string // an index the archived run must carry
	}{
		{"proclus", []string{"-k", "3", "-l", "3"}, "purity"},
		{"clique", []string{"-tau", "0.02", "-highest"}, "coverage"},
		{"orclus", []string{"-k", "3", "-l", "3"}, "purity"},
		{"kmedoids", []string{"-k", "3"}, "purity"},
	}
	for _, tc := range cases {
		dir := t.TempDir()
		report := filepath.Join(dir, "run.json")
		assign := filepath.Join(dir, "assign.csv")
		trace := filepath.Join(dir, "trace.jsonl")
		arch := filepath.Join(dir, "runs")
		profiles := []string{filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")}
		var sb strings.Builder
		args := append([]string{"-algo", tc.algo, "-in", path,
			"-report", report, "-assign", assign, "-archive", arch, "-trace", trace,
			"-cpuprofile", profiles[0], "-memprofile", profiles[1]}, tc.args...)
		if err := run(args, &sb); err != nil {
			t.Fatalf("%s: %v", tc.algo, err)
		}

		data, err := os.ReadFile(report)
		if err != nil {
			t.Fatal(err)
		}
		var rep struct {
			Algorithm string  `json:"algorithm"`
			Objective float64 `json:"objective"`
			Dataset   struct {
				Points  int    `json:"points"`
				Labeled bool   `json:"labeled"`
				Source  string `json:"source"`
			} `json:"dataset"`
			Counters struct {
				DistanceEvals   int64 `json:"distance_evals"`
				PointsScanned   int64 `json:"points_scanned"`
				DenseUnitProbes int64 `json:"dense_unit_probes"`
			} `json:"counters"`
			Levels             int   `json:"levels"`
			DenseBySubspaceDim []int `json:"dense_by_subspace_dim"`
			Clusters           []struct {
				Size int `json:"size"`
			} `json:"clusters"`
		}
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatalf("%s: report not valid JSON: %v", tc.algo, err)
		}
		if rep.Algorithm != tc.algo || len(rep.Clusters) == 0 {
			t.Errorf("%s: report algorithm %q, %d clusters", tc.algo, rep.Algorithm, len(rep.Clusters))
		}
		if rep.Dataset.Points != 1000 || !rep.Dataset.Labeled || rep.Dataset.Source != path {
			t.Errorf("%s: dataset info = %+v", tc.algo, rep.Dataset)
		}
		switch tc.algo {
		case "proclus":
			if rep.Counters.DistanceEvals <= 0 || rep.Counters.PointsScanned <= 0 || len(rep.Clusters) != 3 {
				t.Errorf("proclus: counters %+v, %d clusters", rep.Counters, len(rep.Clusters))
			}
		case "clique":
			if rep.Counters.PointsScanned <= 0 || rep.Counters.DenseUnitProbes <= 0 {
				t.Errorf("clique: counters not collected: %+v", rep.Counters)
			}
			if rep.Levels < 2 || len(rep.DenseBySubspaceDim) != rep.Levels {
				t.Errorf("clique: levels %d, dense %v", rep.Levels, rep.DenseBySubspaceDim)
			}
		case "orclus":
			if rep.Objective == 0 || len(rep.Clusters) != 3 {
				t.Errorf("orclus: objective %v, %d clusters", rep.Objective, len(rep.Clusters))
			}
		}

		as, err := os.ReadFile(assign)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(as)), "\n")
		if lines[0] != "point,cluster" || len(lines) != 1001 {
			t.Errorf("%s: assignment CSV header %q, %d lines, want 1001", tc.algo, lines[0], len(lines))
		}

		st, err := archive.Open(arch, archive.Options{})
		if err != nil {
			t.Fatal(err)
		}
		runs, _, err := st.List()
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) != 1 {
			t.Fatalf("%s: archive holds %d runs, want 1", tc.algo, len(runs))
		}
		if _, ok := runs[0].Quality[tc.quality]; !ok {
			t.Errorf("%s: archived quality %v lacks %q", tc.algo, runs[0].Quality, tc.quality)
		}

		tr, err := os.ReadFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		events := strings.Split(strings.TrimSpace(string(tr)), "\n")
		var first, last struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal([]byte(events[0]), &first); err != nil {
			t.Fatalf("%s: trace line 0 is not valid JSON: %v", tc.algo, err)
		}
		if err := json.Unmarshal([]byte(events[len(events)-1]), &last); err != nil {
			t.Fatalf("%s: trace last line is not valid JSON: %v", tc.algo, err)
		}
		if first.Type != "run_start" || last.Type != "run_end" {
			t.Errorf("%s: trace bracketing: first %q, last %q", tc.algo, first.Type, last.Type)
		}
		for _, p := range profiles {
			if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
				t.Errorf("%s: profile %s missing or empty (err %v)", tc.algo, p, err)
			}
		}
	}
}

// TestWriteAssignments pins the assignment CSV: it round-trips, and a
// failed write leaves neither a file at the path nor a temporary file
// beside it.
func TestWriteAssignments(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.csv")
	want := []int{0, 2, -1, 1, 10}
	if err := writeAssignments(path, want); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(f).ReadAll()
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows[0], []string{"point", "cluster"}) || len(rows) != len(want)+1 {
		t.Fatalf("rows = %v", rows)
	}
	for i, row := range rows[1:] {
		if row[0] != strconv.Itoa(i) || row[1] != strconv.Itoa(want[i]) {
			t.Errorf("row %d = %v, want %d,%d", i, row, i, want[i])
		}
	}

	// A directory that does not exist fails at create; an existing
	// directory at the path fails at the final rename.
	taken := filepath.Join(dir, "taken")
	if err := os.Mkdir(taken, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{filepath.Join(dir, "absent", "a.csv"), taken} {
		if err := writeAssignments(bad, want); err == nil {
			t.Errorf("%s: write succeeded", bad)
		}
		if fi, err := os.Stat(bad); err == nil && !fi.IsDir() {
			t.Errorf("%s: failed write left a file", bad)
		}
		if tmp, _ := filepath.Glob(bad + ".tmp-*"); len(tmp) != 0 {
			t.Errorf("%s: failed write left %v", bad, tmp)
		}
	}
}

// TestSweep runs the l and k sweeps: the objective curve with its
// suggestion, then the suggested run's clusters and quality, written
// to the report.
func TestSweep(t *testing.T) {
	path := writeData(t)
	cases := []struct {
		args   []string
		want   string
		param  string
		lo, hi int
	}{
		{[]string{"-k", "3", "-sweepl", "2:5"}, "suggested l:", "l", 2, 5},
		{[]string{"-l", "3", "-sweepk", "1:4"}, "suggested k:", "k", 1, 4},
	}
	for _, tc := range cases {
		report := filepath.Join(t.TempDir(), "run.json")
		var sb strings.Builder
		args := append([]string{"-algo", "proclus", "-in", path, "-report", report}, tc.args...)
		if err := run(args, &sb); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		wantAll(t, "sweep output", sb.String(), tc.want, "← suggested", "proclus:", "purity:")
		data, err := os.ReadFile(report)
		if err != nil {
			t.Fatal(err)
		}
		var rep struct {
			Algorithm string         `json:"algorithm"`
			Config    map[string]any `json:"config"`
		}
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatalf("sweep report is not valid JSON: %v", err)
		}
		v, _ := rep.Config[tc.param].(float64)
		if rep.Algorithm != "proclus" || v < float64(tc.lo) || v > float64(tc.hi) {
			t.Errorf("%v: report algorithm %q, %s = %v", tc.args, rep.Algorithm, tc.param, v)
		}
	}
}

func TestParseRange(t *testing.T) {
	if lo, hi, err := parseRange("2:7"); err != nil || lo != 2 || hi != 7 {
		t.Fatalf("parseRange: %d %d %v", lo, hi, err)
	}
	for _, bad := range []string{"", "3", "a:b", "2:"} {
		if _, _, err := parseRange(bad); err == nil {
			t.Errorf("parseRange(%q) accepted", bad)
		}
	}
}

// TestNormalize rescales the in-memory dataset before any algorithm.
func TestNormalize(t *testing.T) {
	path := writeData(t)
	for _, tc := range [][]string{
		{"-algo", "proclus", "-k", "3", "-l", "3", "-normalize", "minmax"},
		{"-algo", "proclus", "-k", "3", "-l", "3", "-normalize", "zscore"},
		{"-algo", "kmedoids", "-k", "3", "-normalize", "zscore"},
	} {
		var sb strings.Builder
		if err := run(append([]string{"-in", path}, tc...), &sb); err != nil {
			t.Fatalf("%v: %v", tc, err)
		}
		wantAll(t, "normalized run", sb.String(), tc[1]+":", "ARI")
	}
}

// TestRunErrors covers bad input that passes flag validation: missing
// files, out-of-range parameters and malformed values.
func TestRunErrors(t *testing.T) {
	path := writeData(t)
	absent := filepath.Join(t.TempDir(), "absent.bin")
	for _, args := range [][]string{
		{"-algo", "proclus", "-in", absent, "-k", "2", "-l", "3"},
		{"-algo", "clique", "-in", absent},
		{"-algo", "proclus", "-in", path, "-k", "2"},
		{"-algo", "proclus", "-in", path, "-k", "2", "-l", "99"},
		{"-algo", "orclus", "-in", path, "-k", "2"},
		{"-algo", "orclus", "-in", path, "-k", "2", "-l", "99"},
		{"-algo", "clique", "-in", path, "-xi", "1"},
		{"-algo", "proclus", "-in", path, "-k", "2", "-sweepl", "banana"},
		{"-algo", "proclus", "-in", path, "-k", "2", "-sweepl", "5:2"},
		{"-algo", "proclus", "-in", path, "-k", "2", "-l", "3", "-normalize", "nope"},
	} {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// TestObservabilityKeepsOutput pins that attaching the live metrics
// endpoint, progress logging and a Chrome trace changes no clustering
// output, and that the Chrome trace is written.
func TestObservabilityKeepsOutput(t *testing.T) {
	path := writeData(t)
	chrome := filepath.Join(t.TempDir(), "trace.json")
	base := []string{"-algo", "proclus", "-in", path, "-k", "3", "-l", "3"}
	var plain, monitored strings.Builder
	if err := run(base, &plain); err != nil {
		t.Fatal(err)
	}
	err := run(append(base, "-metrics-addr", "127.0.0.1:0", "-progress", "-chrometrace", chrome), &monitored)
	if err != nil {
		t.Fatal(err)
	}
	// The header line embeds the elapsed wall time.
	stripTiming := func(s string) string {
		_, rest, _ := strings.Cut(s, "\n")
		return rest
	}
	if stripTiming(plain.String()) != stripTiming(monitored.String()) {
		t.Errorf("monitoring changed output:\n--- plain ---\n%s\n--- monitored ---\n%s",
			plain.String(), monitored.String())
	}
	data, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("chrome trace empty")
	}
}

// streamReport is the part of a streamed run's report the streamed
// tests check.
type streamReport struct {
	Config struct {
		Stream      bool `json:"stream"`
		BlockPoints int  `json:"block_points"`
	} `json:"config"`
	Counters struct {
		StreamBlocks int64 `json:"stream_blocks"`
		StreamBytes  int64 `json:"stream_bytes"`
	} `json:"counters"`
}

func readStreamReport(t *testing.T, path string) streamReport {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep streamReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	return rep
}

// TestStreamedProclus exercises the out-of-core path: labeled quality
// still works via the label scan, the assignments are written, and the
// report echoes the streamed configuration.
func TestStreamedProclus(t *testing.T) {
	path := writeData(t)
	dir := t.TempDir()
	assign := filepath.Join(dir, "a.csv")
	report := filepath.Join(dir, "run.json")
	var sb strings.Builder
	err := run([]string{"-algo", "proclus", "-in", path, "-k", "3", "-l", "3",
		"-stream", "-block-points", "256", "-assign", assign, "-report", report}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	wantAll(t, "streamed proclus output", sb.String(), "proclus (streamed, 256-point blocks):",
		"objective:", "dimensions (1-based)", "confusion matrix", "purity:", "ARI:", "NMI:")
	data, err := os.ReadFile(assign)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(string(data)), "\n"); len(lines) != 1001 {
		t.Errorf("%d assignment lines, want 1001", len(lines))
	}
	if rep := readStreamReport(t, report); !rep.Config.Stream || rep.Config.BlockPoints != 256 {
		t.Errorf("report config echo = %+v, want stream=true block_points=256", rep.Config)
	}
}

// TestStreamedCliqueSkipsQuality checks that a streamed CLIQUE run
// finds the in-memory run's lattice, skips the measures that need
// per-point membership, records its stream counters, and refuses -assign.
func TestStreamedCliqueSkipsQuality(t *testing.T) {
	path := writeData(t)
	report := filepath.Join(t.TempDir(), "run.json")
	base := []string{"-algo", "clique", "-in", path, "-tau", "0.02", "-mdl", "-highest"}
	var mem, str strings.Builder
	if err := run(base, &mem); err != nil {
		t.Fatal(err)
	}
	if err := run(append(base, "-stream", "-block-points", "128", "-report", report), &str); err != nil {
		t.Fatal(err)
	}
	got := str.String()
	wantAll(t, "streamed clique output", got, "clique (streamed, 128-point blocks):",
		"overlap/coverage: skipped", "quality: skipped")
	for _, line := range strings.Split(mem.String(), "\n") {
		if strings.HasPrefix(line, "dense units") || strings.HasPrefix(line, "clusters:") {
			wantAll(t, "streamed clique output (lattice of the in-memory run)", got, line)
		}
	}
	rep := readStreamReport(t, report)
	if !rep.Config.Stream || rep.Config.BlockPoints != 128 {
		t.Errorf("config echo = %+v, want stream=true block_points=128", rep.Config)
	}
	if rep.Counters.StreamBlocks <= 0 || rep.Counters.StreamBytes <= 0 {
		t.Errorf("stream counters not recorded: %+v", rep.Counters)
	}
	var sb strings.Builder
	if err := run([]string{"-algo", "clique", "-in", path, "-tau", "0.02",
		"-stream", "-assign", filepath.Join(t.TempDir(), "a.csv")}, &sb); err == nil {
		t.Error("-assign on a streamed clique fit accepted")
	}
}

// TestStallCancelAborts wires the hair-trigger stall watchdog to the
// run context, in memory and streamed: the command must fail with a
// cancellation error, must not leave a partial assignment file behind,
// and must still flush the series recorded before the abort.
func TestStallCancelAborts(t *testing.T) {
	path := writeData(t)
	for _, extra := range [][]string{nil, {"-stream"}} {
		dir := t.TempDir()
		assign := filepath.Join(dir, "a.csv")
		seriesPath := filepath.Join(dir, "s.json")
		var sb strings.Builder
		args := append([]string{"-algo", "proclus", "-in", path, "-k", "3", "-l", "3",
			"-stall-iters", "1", "-stall-cancel", "-assign", assign, "-series", seriesPath}, extra...)
		err := run(args, &sb)
		if err == nil || !strings.Contains(err.Error(), "context canceled") {
			t.Fatalf("%v: stalled run error = %v, want context cancellation", extra, err)
		}
		if _, statErr := os.Stat(assign); !os.IsNotExist(statErr) {
			t.Errorf("%v: aborted run left an assignment file (stat err %v)", extra, statErr)
		}
		snap, readErr := series.ReadSnapshotFile(seriesPath)
		if readErr != nil {
			t.Fatalf("%v: series snapshot not flushed: %v", extra, readErr)
		}
		if s := snap.Find(core.SeriesIterObjective, metrics.L("restart", "1")); s == nil || s.Total == 0 {
			t.Errorf("%v: flushed snapshot has no objective series", extra)
		}
	}
}

func TestRequiredFlags(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-algo", "proclus"}, &sb); err == nil {
		t.Error("missing -in accepted")
	}
	if err := run([]string{"-in", "x.bin"}, &sb); err == nil {
		t.Error("missing -algo accepted")
	}
}
