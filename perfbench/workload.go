package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"proclus"
)

// Every workload draws its inputs from the paper's §4 generator with
// the Case 1 shape: k clusters, each correlated in a fixed number of
// dimensions, 5% uniform outliers (the generator's default), cluster
// sizes conditioned like the paper's published inputs. The operation
// asks PROCLUS for the same k with l equal to the planted dimension
// count.
const (
	clusters     = 5
	relevantDims = 7
	minShare     = 0.1
)

// workload is one input shape and entry point of the benchmark; why
// each exists is recorded in BENCHMARK.json and README.md.
type workload struct {
	name string
	// n and dims are the shape of every generated input.
	n, dims int
	// inputs is the number of distinct inputs one run generates and
	// cycles through. Hill-climb length varies from input to input, so
	// a run over several inputs reports a median that moves less from
	// seed to seed than the time of any single input.
	inputs int
	// stream selects OpenFileSource/RunStream; otherwise the operation
	// is LoadFile/Run.
	stream bool
	// setupRepeats is how many times an end-to-end run repeats its
	// set-up, so setup_s is a median over at least two seconds of
	// set-up.
	setupRepeats int
	// ariFloor is the lowest ARI against the generator's ground truth
	// an operation may score before it counts as failed. It sits below
	// the lowest value observed over many seeds.
	ariFloor float64
}

var workloads = []workload{
	{name: "mem_d20", n: 10_000, dims: 20, inputs: 32, setupRepeats: 9, ariFloor: 0.30},
	{name: "mem_d100", n: 5_000, dims: 100, inputs: 26, setupRepeats: 7, ariFloor: 0.30},
	{name: "stream_d20", n: 1_000_000, dims: 20, inputs: 3, stream: true, setupRepeats: 3, ariFloor: 0.30},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// input is one generated input file with the ground truth the output
// check needs.
type input struct {
	index  int
	path   string
	out    string
	seed   uint64
	labels []int
	bytes  int64
}

// inputSeed derives the i-th input's seed from the run seed; distinct
// run seeds never share an input.
func inputSeed(w workload, seed uint64, i int) uint64 {
	return seed*uint64(w.inputs) + uint64(i)
}

// makeInputs generates the workload's inputs from seed and writes each
// as a binary dataset file under dir.
func makeInputs(w workload, seed uint64, dir string) ([]input, error) {
	ins := make([]input, w.inputs)
	for i := range ins {
		s := inputSeed(w, seed, i)
		ds, _, err := proclus.Generate(proclus.GeneratorConfig{
			N: w.n, Dims: w.dims, K: clusters, FixedDims: relevantDims,
			MinSizeFraction: minShare, Seed: s,
		})
		if err != nil {
			return nil, fmt.Errorf("generating input %d: %w", i, err)
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-%d.bin", w.name, i))
		if err := ds.SaveFile(path); err != nil {
			return nil, err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		ins[i] = input{
			index: i, path: path, seed: s, labels: ds.Labels(), bytes: fi.Size(),
			out: filepath.Join(dir, fmt.Sprintf("%s-%d.csv", w.name, i)),
		}
	}
	return ins, nil
}

// config is the configuration of every operation: the paper's two
// parameters, the seed and the worker count. Everything else keeps
// its default, so engine and tier knobs can change or disappear
// without touching the benchmark.
func config(in input, workers int, obs proclus.Observer) proclus.Config {
	return proclus.Config{K: clusters, L: relevantDims, Seed: in.seed, Workers: workers, Observer: obs}
}

// opResult is what one operation measured.
type opResult struct {
	wall    time.Duration
	allocMB float64
	res     *proclus.Result
}

// operate runs one operation: input file to assignment file. A non-nil
// tracer records spans around each step and wraps the streamed source.
func operate(ctx context.Context, w workload, in input, workers int, tr *tracer) (opResult, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	op := tr.begin("operation", 0)
	res, err := run(ctx, w, in, workers, tr, op)
	if err == nil {
		step := tr.begin("write", op)
		err = writeAssignments(in.out, res.Assignments)
		tr.end(step)
	}
	tr.end(op)
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return opResult{wall: wall}, err
	}
	return opResult{
		wall: wall, res: res, allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
	}, nil
}

func run(ctx context.Context, w workload, in input, workers int, tr *tracer, op int) (*proclus.Result, error) {
	if w.stream {
		step := tr.begin("open", op)
		src, err := proclus.OpenFileSource(in.path, 0)
		tr.end(step)
		if err != nil {
			return nil, err
		}
		step = tr.begin("run", op)
		defer tr.end(step)
		var ps proclus.PointSource = src
		if tr != nil {
			ps = traceSource(src, tr)
		}
		return proclus.RunStream(ctx, ps, config(in, workers, tr.observer()))
	}
	step := tr.begin("load", op)
	ds, err := proclus.LoadFile(in.path, true)
	tr.end(step)
	if err != nil {
		return nil, err
	}
	step = tr.begin("run", op)
	defer tr.end(step)
	return proclus.Run(ds, config(in, workers, tr.observer()))
}

// writeAssignments writes one line per point holding its cluster index
// (-1 for outliers).
func writeAssignments(path string, assign []int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	buf := make([]byte, 0, 24)
	for _, a := range assign {
		buf = strconv.AppendInt(buf[:0], int64(a), 10)
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
