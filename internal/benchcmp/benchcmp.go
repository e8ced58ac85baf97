// Package benchcmp defines the schema of the benchmark-telemetry files
// proclus-bench emits (-bench-json) and diffs two of them, flagging
// per-experiment regressions beyond a noise threshold.
//
// Two classes of metric are compared with different tolerances:
//
//   - time metrics (wall seconds, per-phase seconds, ns/op) are noisy —
//     they move with machine load, CPU frequency and cache state — so
//     they use the wide Options.TimeThreshold and ignore measurements
//     below Options.MinSeconds entirely;
//   - work metrics (run counts and every obs.Counter: distance
//     evaluations, points scanned, stream blocks, …) are deterministic
//     for a fixed seed, so they use the tight Options.WorkThreshold.
package benchcmp

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"proclus/internal/obs"
	"proclus/internal/obs/metrics"
)

// SchemaVersion is the format version stamped into every File. Compare
// refuses files whose versions disagree with each other or with this
// package, so a stale baseline fails loudly instead of silently
// diffing incompatible fields.
const SchemaVersion = 1

// File is one benchmark-telemetry capture: the bench configuration it
// was recorded under, provenance (git revision, timestamp), and one
// Record per experiment.
type File struct {
	Schema    int       `json:"schema"`
	CreatedAt time.Time `json:"created_at"`
	// GitRev is the recording checkout's revision (empty when the
	// recorder ran outside a git checkout).
	GitRev string `json:"git_rev,omitempty"`
	// GoVersion and MaxProcs describe the recording runtime.
	GoVersion string `json:"go_version,omitempty"`
	MaxProcs  int    `json:"max_procs,omitempty"`
	Config    Config `json:"config"`
	// Records holds one entry per experiment run.
	Records []Record `json:"records"`
}

// Config echoes the proclus-bench invocation the file was recorded
// with, so a comparison against a baseline recorded at a different
// scale can be rejected by eye (and Compare warns when they differ).
type Config struct {
	Experiment string `json:"experiment"`
	N          int    `json:"n,omitempty"`
	Full       bool   `json:"full,omitempty"`
	Seed       uint64 `json:"seed"`
	Workers    int    `json:"workers,omitempty"`
}

// Record is one experiment's telemetry: wall and in-algorithm phase
// times, deterministic work counters, the per-run normalization ns/op,
// and the full metric-registry snapshot (phase-latency histograms,
// throughput rates, counter series).
type Record struct {
	Experiment string `json:"experiment"`
	// WallSeconds covers the whole experiment including dataset
	// generation and evaluation.
	WallSeconds float64 `json:"wall_seconds"`
	// Runs counts the PROCLUS runs aggregated into PhaseSeconds.
	Runs int `json:"runs,omitempty"`
	// PhaseSeconds sums in-algorithm time per PROCLUS phase over Runs.
	// Map-backed so new phases extend the schema without a version bump;
	// encoding/json emits keys sorted, keeping files diff-stable.
	PhaseSeconds map[string]float64 `json:"phase_seconds,omitempty"`
	// Counters sums the deterministic hot-path work counters over every
	// clustering run in the experiment (PROCLUS and CLIQUE baselines).
	Counters obs.Snapshot `json:"counters"`
	// NsPerOp is in-algorithm nanoseconds per PROCLUS run (0 when the
	// experiment runs none, e.g. the CLIQUE-only table5).
	NsPerOp float64 `json:"ns_per_op,omitempty"`
	// Metrics snapshots the experiment's metric registry: histograms,
	// rates and counter series accumulated across its runs.
	Metrics metrics.Snapshot `json:"metrics,omitempty"`
	// Quality holds external evaluation indices (ari, nmi, purity) keyed
	// by name. Unlike every other metric, higher is better, so Compare
	// flags drops as regressions. Absent on captures recorded before the
	// archive tier existed; missing keys are simply not compared.
	Quality map[string]float64 `json:"quality,omitempty"`
}

// TotalPhaseSeconds sums the per-phase in-algorithm times.
func (r Record) TotalPhaseSeconds() float64 {
	var total float64
	for _, s := range r.PhaseSeconds {
		total += s
	}
	return total
}

// Load reads and validates one telemetry file.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema == 0 {
		return nil, fmt.Errorf("%s: missing schema version", path)
	}
	return &f, nil
}

// WriteJSON serializes the file with stable indentation.
func (f *File) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// DefaultFileName is the canonical BENCH_<timestamp>.json name for a
// capture taken at the given instant.
func DefaultFileName(now time.Time) string {
	return "BENCH_" + now.UTC().Format("20060102T150405Z") + ".json"
}

// Options tunes the comparison thresholds. The zero value selects the
// defaults.
type Options struct {
	// TimeThreshold is the relative slowdown beyond which a time metric
	// counts as a regression (0.5 = flag past 1.5×). Default 0.5: wide,
	// because wall times on shared CI machines jitter by tens of
	// percent, while real regressions worth failing a build over tend to
	// be integer factors.
	TimeThreshold float64
	// WorkThreshold is the relative tolerance for the deterministic work
	// counters. Default 0.01: counters reproduce exactly for a fixed
	// seed, so any drift means the algorithm changed; the slack only
	// absorbs intentional small reworks. (It was 0.1 before the
	// incremental-evaluation engine made the counter pipeline
	// worker-count exact end to end, then 0.02 for a while.)
	WorkThreshold float64
	// MinSeconds is the noise floor for time metrics: when both sides
	// measure below it, the pair is skipped (a 3 ms phase doubling to
	// 6 ms is scheduler noise, not a regression). Default 0.01.
	MinSeconds float64
}

func (o Options) withDefaults() Options {
	if o.TimeThreshold == 0 {
		o.TimeThreshold = 0.5
	}
	if o.WorkThreshold == 0 {
		o.WorkThreshold = 0.01
	}
	if o.MinSeconds == 0 {
		o.MinSeconds = 0.01
	}
	return o
}

// Delta is one metric whose candidate value moved beyond threshold.
type Delta struct {
	Experiment string  `json:"experiment"`
	Metric     string  `json:"metric"`
	Kind       string  `json:"kind"` // "time" or "work"
	Baseline   float64 `json:"baseline"`
	Candidate  float64 `json:"candidate"`
	// Ratio is candidate/baseline (0 when the baseline is zero, kept
	// finite so reports stay JSON-encodable).
	Ratio float64 `json:"ratio"`
}

// Report is the outcome of one comparison.
type Report struct {
	// Regressions and Improvements list metrics that moved beyond
	// threshold, worse and better respectively.
	Regressions  []Delta `json:"regressions,omitempty"`
	Improvements []Delta `json:"improvements,omitempty"`
	// Unmatched names experiments present in only one file; they are
	// not compared.
	Unmatched []string `json:"unmatched,omitempty"`
	// Compared counts the experiment pairs diffed.
	Compared int `json:"compared"`
	// ConfigMismatch is set when the two files were recorded under
	// different bench configurations (scale, seed); time comparisons
	// are then meaningless, so Compare reports it prominently.
	ConfigMismatch bool `json:"config_mismatch,omitempty"`
}

// HasRegressions reports whether the candidate regressed anywhere.
func (r *Report) HasRegressions() bool { return len(r.Regressions) > 0 }

// WriteText renders the report for terminals and CI logs.
func (r *Report) WriteText(w io.Writer) error {
	if r.ConfigMismatch {
		fmt.Fprintln(w, "WARNING: files were recorded under different bench configurations; time deltas are not comparable")
	}
	for _, name := range r.Unmatched {
		fmt.Fprintf(w, "skipped %s: present in only one file\n", name)
	}
	writeDeltas := func(header string, ds []Delta) {
		if len(ds) == 0 {
			return
		}
		fmt.Fprintln(w, header)
		for _, d := range ds {
			fmt.Fprintf(w, "  %-10s %-28s %12.4g -> %-12.4g (%.2fx)\n",
				d.Experiment, d.Metric, d.Baseline, d.Candidate, d.Ratio)
		}
	}
	writeDeltas("REGRESSIONS:", r.Regressions)
	writeDeltas("improvements:", r.Improvements)
	if !r.HasRegressions() {
		fmt.Fprintf(w, "no regressions across %d experiment(s)\n", r.Compared)
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Compare diffs candidate against baseline. It fails outright on a
// schema-version mismatch; everything else is reported, never fatal.
func Compare(baseline, candidate *File, opts Options) (*Report, error) {
	if baseline.Schema != candidate.Schema {
		return nil, fmt.Errorf("schema version mismatch: baseline v%d vs candidate v%d (re-record the baseline)",
			baseline.Schema, candidate.Schema)
	}
	if baseline.Schema != SchemaVersion {
		return nil, fmt.Errorf("unsupported schema version %d (this tool understands v%d)",
			baseline.Schema, SchemaVersion)
	}
	opts = opts.withDefaults()
	rep := &Report{ConfigMismatch: baseline.Config != candidate.Config}

	base := make(map[string]Record, len(baseline.Records))
	for _, r := range baseline.Records {
		base[r.Experiment] = r
	}
	seen := make(map[string]bool, len(candidate.Records))
	for _, cand := range candidate.Records {
		b, ok := base[cand.Experiment]
		if !ok {
			rep.Unmatched = append(rep.Unmatched, cand.Experiment)
			continue
		}
		seen[cand.Experiment] = true
		rep.Compared++
		compareRecord(rep, b, cand, opts)
	}
	for _, r := range baseline.Records {
		if !seen[r.Experiment] {
			rep.Unmatched = append(rep.Unmatched, r.Experiment)
		}
	}
	sort.Strings(rep.Unmatched)
	return rep, nil
}

// CompareRecords diffs a single pair of records outside the file-level
// flow — the entry point `runlens diff` uses to compare two archived
// runs' manifests after adapting them to the Record schema. The
// returned report covers just this pair.
func CompareRecords(base, cand Record, opts Options) *Report {
	rep := &Report{Compared: 1}
	compareRecord(rep, base, cand, opts.withDefaults())
	return rep
}

func compareRecord(rep *Report, base, cand Record, opts Options) {
	classify := func(metric, kind string, b, c, threshold float64) {
		if kind == "time" && b < opts.MinSeconds && c < opts.MinSeconds {
			return
		}
		d := Delta{
			Experiment: cand.Experiment, Metric: metric, Kind: kind,
			Baseline: b, Candidate: c,
		}
		if b > 0 {
			d.Ratio = c / b
		} else if c == 0 {
			return // both zero
		}
		switch {
		case c > b*(1+threshold):
			rep.Regressions = append(rep.Regressions, d)
		case b > c*(1+threshold):
			rep.Improvements = append(rep.Improvements, d)
		}
	}

	classify("wall_seconds", "time", base.WallSeconds, cand.WallSeconds, opts.TimeThreshold)
	classify("ns_per_op", "time", base.NsPerOp, cand.NsPerOp, opts.TimeThreshold)
	for _, phase := range sortedKeys(base.PhaseSeconds, cand.PhaseSeconds) {
		classify("phase_seconds/"+phase, "time",
			base.PhaseSeconds[phase], cand.PhaseSeconds[phase], opts.TimeThreshold)
	}
	classify("runs", "work", float64(base.Runs), float64(cand.Runs), opts.WorkThreshold)
	for c := obs.Counter(0); c < obs.NumCounters; c++ {
		classify("counters/"+c.Name(), "work",
			float64(base.Counters.Get(c)), float64(cand.Counters.Get(c)), opts.WorkThreshold)
	}

	// Quality indices invert the regression sense: a drop beyond
	// threshold regresses, a rise improves. Keys present on only one
	// side are skipped (older captures carry no quality map).
	for _, name := range sortedKeys(base.Quality, cand.Quality) {
		b, okB := base.Quality[name]
		c, okC := cand.Quality[name]
		if !okB || !okC {
			continue
		}
		d := Delta{
			Experiment: cand.Experiment, Metric: "quality/" + name, Kind: "quality",
			Baseline: b, Candidate: c,
		}
		if b > 0 {
			d.Ratio = c / b
		} else if c == 0 {
			continue
		}
		switch {
		case b > c*(1+opts.WorkThreshold):
			rep.Regressions = append(rep.Regressions, d)
		case c > b*(1+opts.WorkThreshold):
			rep.Improvements = append(rep.Improvements, d)
		}
	}
}

func sortedKeys(maps ...map[string]float64) []string {
	set := map[string]bool{}
	for _, m := range maps {
		for k := range m {
			set[k] = true
		}
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
