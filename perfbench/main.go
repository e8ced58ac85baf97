// Command perfbench is the repository's end-to-end and per-layer
// benchmark. One process drives a closed loop with one operation in
// flight: each operation takes a generated input file to an assignment
// file through the public facade (LoadFile/Run or
// OpenFileSource/RunStream), and every output is checked. See
// README.md for the workloads, metrics and layer map.
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload mem_d20 --seed 1 --seconds 35 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workDir holds inputs, outputs and captures, relative to the
// directory the benchmark runs in.
var workDir = filepath.Join(".bench_build", "perfbench")

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: mem_d20, mem_d100 or stream_d20")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 35, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics; 0 the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workDir, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	b := newBench(w, *seed, time.Duration(*seconds)*time.Second, dir)
	ctx := context.Background()
	var metrics []metric
	var spans []span
	if *trace == 1 {
		metrics, spans, err = b.traced(ctx)
	} else {
		metrics, err = b.endToEnd(ctx)
	}
	if err != nil {
		return err
	}
	set := b.settings(*seconds, *trace == 1)
	if err := saveCapture(set, metrics, spans, b); err != nil {
		return err
	}
	return report(stdout, set, metrics, b)
}

// metric is one named measurement. Only metrics marked reported go
// into the result object; the others are printed for reading.
type metric struct {
	Name     string  `json:"name"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	reported bool
}

type bench struct {
	w      workload
	seed   uint64
	budget time.Duration
	nproc  int
	dir    string
	ins    []input
	ver    *verifier
	log    io.Writer
	setupS []float64
	ops    []opRecord
	// cal holds every time of the calibration loop taken in the run.
	cal []float64
	// afterOp, when set, runs between an operation and its check.
	afterOp func(in input)
}

func newBench(w workload, seed uint64, budget time.Duration, dir string) *bench {
	return &bench{w: w, seed: seed, budget: budget, nproc: runtime.NumCPU(), dir: dir,
		ver: newVerifier(w.ariFloor), log: os.Stderr}
}

// setup generates the inputs reps times and keeps the last set.
func (b *bench) setup(reps int) error {
	for r := 0; r < reps; r++ {
		b.cal = append(b.cal, calibrate())
		start := time.Now()
		ins, err := makeInputs(b.w, b.seed, b.dir)
		if err != nil {
			return err
		}
		b.setupS = append(b.setupS, time.Since(start).Seconds())
		b.ins = ins
		runtime.GC()
	}
	debug.FreeOSMemory()
	return nil
}

// opRecord is one attempted operation, as saved in the capture.
type opRecord struct {
	Input   int     `json:"input"`
	Workers int     `json:"workers"`
	Traced  bool    `json:"traced,omitempty"`
	WallS   float64 `json:"wall_s"`
	AllocMB float64 `json:"alloc_mb"`
	CalS    float64 `json:"cal_s"`
	ARI     float64 `json:"ari"`
	Error   string  `json:"error,omitempty"`
}

// do runs one operation and checks its output. Every call counts as
// attempted; an error from the run or the check counts it as failed,
// and a failed operation contributes no timing.
func (b *bench) do(ctx context.Context, in input, workers int, tr *tracer) (opResult, bool) {
	cal := calibrate()
	b.cal = append(b.cal, cal)
	r, err := operate(ctx, b.w, in, workers, tr)
	ari := 0.0
	if err == nil {
		if b.afterOp != nil {
			b.afterOp(in)
		}
		ari, err = b.ver.check(in, workers)
	}
	rec := opRecord{Input: in.index, Workers: workers, Traced: tr != nil, WallS: r.wall.Seconds(), AllocMB: r.allocMB, ARI: ari, CalS: cal}
	if err != nil {
		rec.Error = err.Error()
		fmt.Fprintf(b.log, "operation failed: %v\n", err)
	}
	b.ops = append(b.ops, rec)
	return r, err == nil
}

// failed counts the failed operations.
func (b *bench) failed() int {
	n := 0
	for _, op := range b.ops {
		if op.Error != "" {
			n++
		}
	}
	return n
}

// cycles calls body for whole cycles: once, then again for as long as
// one more cycle, as long as the last one, still ends within the
// budget.
func (b *bench) cycles(body func(cycle int) error) error {
	start := time.Now()
	var last time.Duration
	for c := 0; c == 0 || time.Since(start)+last <= b.budget; c++ {
		t0 := time.Now()
		if err := body(c); err != nil {
			return err
		}
		last = time.Since(t0)
	}
	return nil
}

// endToEnd measures the untraced operation at workers = nproc and at
// workers = 1, cycling through the inputs.
//
// wall_s and wall_s.w1 are the mean over inputs of each input's median
// operation, scaled to the reference host (see calRefS). The cost of a
// hill climb varies by ~15% from input to input, which a mean over many
// inputs averages out; the median over an input's repeats (the
// streamed workload makes about a dozen) takes out bursts of
// interference; and the scaling takes out the slower drift of the
// whole host.
// setup_s is scaled the same way. The raw figures, the median over all
// operations and a tail percentile are printed beside them.
func (b *bench) endToEnd(ctx context.Context) ([]metric, error) {
	if err := b.setup(b.w.setupRepeats); err != nil {
		return nil, err
	}
	var wallN, wall1, alloc []float64
	perN := make([][]float64, len(b.ins))
	per1 := make([][]float64, len(b.ins))
	err := b.cycles(func(int) error {
		for i, in := range b.ins {
			if r, ok := b.do(ctx, in, b.nproc, nil); ok {
				wallN = append(wallN, r.wall.Seconds())
				alloc = append(alloc, r.allocMB)
				perN[i] = append(perN[i], r.wall.Seconds())
			}
			if r, ok := b.do(ctx, in, 1, nil); ok {
				wall1 = append(wall1, r.wall.Seconds())
				per1[i] = append(per1[i], r.wall.Seconds())
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	medN, med1 := inputMedians(perN), inputMedians(per1)
	slowdown := mean(b.cal) / calRefS
	scale := math.Pow(slowdown, hostElasticity)
	ms := []metric{
		{Name: "setup_s", Value: median(b.setupS) / scale, Unit: "s", reported: true},
		{Name: "wall_s", Value: mean(medN) / scale, Unit: "s", reported: true},
		{Name: "wall_s.w1", Value: mean(med1) / scale, Unit: "s", reported: true},
		{Name: "alloc_mb", Value: median(alloc), Unit: "MB", reported: true},
		{Name: "ari", Value: b.ver.meanARI(), Unit: "ratio", reported: true},
		{Name: "host.slowdown", Value: slowdown, Unit: "x"},
		{Name: "setup_s.raw", Value: median(b.setupS), Unit: "s"},
	}
	for _, s := range []struct {
		name string
		per  []float64
		xs   []float64
	}{{"wall_s", medN, wallN}, {"wall_s.w1", med1, wall1}} {
		ms = append(ms,
			metric{Name: s.name + ".raw", Value: mean(s.per), Unit: "s"},
			metric{Name: s.name + ".p50", Value: median(s.xs), Unit: "s"},
			metric{Name: s.name + ".n", Value: float64(len(s.xs)), Unit: "count"})
		if p, v, ok := tail(s.xs); ok {
			ms = append(ms, metric{Name: fmt.Sprintf("%s.p%.0f", s.name, p), Value: v, Unit: "s"})
		}
	}
	return ms, nil
}

type settings struct {
	Workload    string   `json:"workload"`
	Seed        uint64   `json:"seed"`
	Seconds     int      `json:"seconds"`
	Traced      bool     `json:"traced"`
	NProc       int      `json:"nproc"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	GoVersion   string   `json:"go_version"`
	LLC         string   `json:"llc"`
	Points      int      `json:"points"`
	Dims        int      `json:"dims"`
	K           int      `json:"k"`
	L           int      `json:"l"`
	InputSeeds  []uint64 `json:"input_seeds"`
	InputBytes  []int64  `json:"input_bytes"`
	ARIFloor    float64  `json:"ari_floor"`
	SetupRepeat int      `json:"setup_repeats"`
}

func (b *bench) settings(seconds int, traced bool) settings {
	s := settings{
		Workload: b.w.name, Seed: b.seed, Seconds: seconds, Traced: traced,
		NProc: b.nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		LLC: llcSize(), Points: b.w.n, Dims: b.w.dims, K: clusters, L: relevantDims,
		ARIFloor: b.w.ariFloor, SetupRepeat: len(b.setupS),
	}
	for _, in := range b.ins {
		s.InputSeeds = append(s.InputSeeds, in.seed)
		s.InputBytes = append(s.InputBytes, in.bytes)
	}
	return s
}

// llcSize reads the last-level cache size the kernel reports for CPU 0.
func llcSize() string {
	raw, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index3/size")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(raw))
}

// saveCapture writes the run's settings, metrics and spans under
// workDir/captures.
func saveCapture(set settings, ms []metric, spans []span, b *bench) error {
	dir := filepath.Join(workDir, "captures")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if set.Traced {
		trace = 1
	}
	raw, err := json.Marshal(struct {
		Settings settings   `json:"settings"`
		Metrics  []metric   `json:"metrics"`
		Ops      []opRecord `json:"ops"`
		Spans    []span     `json:"spans,omitempty"`
	}{set, ms, b.ops, spans})
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", set.Workload, set.Seed, trace))
	return os.WriteFile(path, raw, 0o644)
}

// report prints the settings and every metric by name with its unit,
// then the result object as the last line.
func report(w io.Writer, set settings, ms []metric, b *bench) error {
	raw, err := json.Marshal(set)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "settings %s\n", raw)
	fmt.Fprintf(w, "%-26s %16d count\n%-26s %16d count\n", "ops", len(b.ops), "ops_failed", b.failed())
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{b.failed() == 0, len(b.ops), b.failed(), map[string]value{}}
	for _, m := range ms {
		fmt.Fprintf(w, "%-26s %16.6g %s\n", m.Name, m.Value, m.Unit)
		if m.reported {
			out.Metrics[m.Name] = value{m.Value, m.Unit}
		}
	}
	raw, err = json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// inputMedians returns the median of each input's times, skipping
// inputs none of whose operations succeeded.
func inputMedians(per [][]float64) []float64 {
	var xs []float64
	for _, ts := range per {
		if len(ts) > 0 {
			xs = append(xs, median(ts))
		}
	}
	return xs
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quantile interpolates linearly between the order statistics of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tail returns the highest percentile of xs that has at least ten
// samples beyond it, with its value; ok is false below eleven samples.
func tail(xs []float64) (pct, v float64, ok bool) {
	n := len(xs)
	if n < 11 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return 100 * float64(n-10) / float64(n), s[n-11], true
}
