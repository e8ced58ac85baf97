// Command pcluster is the clustering CLI over the algorithm registry: one
// binary that runs any registered clustering algorithm — PROCLUS,
// CLIQUE, ORCLUS or the full-dimensional k-medoids baseline — with one
// shared flag surface. A flag the selected algorithm or source cannot
// honour (streaming ORCLUS, a cluster count for CLIQUE, a worker budget
// on the serial k-medoids descent, another algorithm's parameters, the
// stall watchdog on an algorithm without per-iteration events) fails
// with an error naming it instead of being silently ignored.
//
// Every run prints the clusters with their 1-based dimension sets and,
// for labeled input, the external indices of §4.2 of the paper: the
// confusion matrix and purity for the algorithms that take a cluster
// count, ARI and NMI for all, CLIQUE's average overlap and coverage.
//
// Usage:
//
//	pcluster -list
//	pcluster -algo proclus  -in data.bin -k 5 -l 7
//	pcluster -algo proclus  -in data.bin -k 5 -sweepl 2:9      # choose l per §4.3
//	pcluster -algo proclus  -in data.bin -k 5 -l 7 -stream -block-points 4096
//	pcluster -algo proclus  -in data.bin -k 5 -l 7 -report run.json -archive runs/
//	pcluster -algo clique   -in data.csv -labels -xi 10 -tau 0.005 -mdl -v
//	pcluster -algo orclus   -in data.bin -k 3 -l 2 -outliers
//	pcluster -algo kmedoids -in data.csv -labels -k 5 -normalize zscore
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"proclus/internal/clique"
	"proclus/internal/core"
	"proclus/internal/dataset"
	"proclus/internal/eval"
	"proclus/internal/obs"
	"proclus/internal/obs/cliflags"
	"proclus/internal/orclus"
	"proclus/internal/registry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "pcluster: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (retErr error) {
	fs := flag.NewFlagSet("pcluster", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		algo      = fs.String("algo", "", "algorithm to run (see -list); required")
		list      = fs.Bool("list", false, "list the registered algorithms and exit")
		in        = fs.String("in", "", "input dataset (.csv or binary); required")
		hasLabels = fs.Bool("labels", false, "CSV input has a trailing ground-truth label column")
		normalize = fs.String("normalize", "", "rescale dimensions before clustering: minmax or zscore (in-memory input only)")

		// Shared knobs. Zero means "not set": algorithms that do not
		// take a knob reject any non-zero value, so nothing is silently
		// ignored.
		k        = fs.Int("k", 0, "number of clusters (proclus, orclus, kmedoids)")
		l        = fs.Int("l", 0, "subspace dimensionality per cluster (proclus, orclus)")
		seed     = fs.Uint64("seed", 1, "random seed")
		workers  = fs.Int("workers", 0, "goroutine budget for parallel passes (0 = GOMAXPROCS); results are identical for any value")
		stream   = fs.Bool("stream", false, "cluster the input out of core (binary input; streaming-capable algorithms only)")
		blockPts = fs.Int("block-points", 0, "points per streamed block (0 = default); only with -stream")

		// PROCLUS parameter sweeps (§4.3): rerun over a range, print the
		// objective curve, and keep the suggested run.
		sweepL = fs.String("sweepl", "", "proclus: sweep l over a min:max range and keep the suggested run (in-memory input only)")
		sweepK = fs.String("sweepk", "", "proclus: sweep k over a min:max range and keep the suggested run (in-memory input only)")

		// CLIQUE grid parameters.
		xi      = fs.Int("xi", 0, "clique: intervals per dimension ξ (0 = default)")
		tau     = fs.Float64("tau", 0, "clique: density threshold τ as a fraction of N (0 = default)")
		maxDims = fs.Int("maxdims", 0, "clique: stop the subspace search at this dimensionality (0 = unlimited)")
		fixed   = fs.Int("fixeddims", 0, "clique: report clusters only at exactly this dimensionality")
		maximal = fs.Bool("maximal", false, "clique: report only maximal dense subspaces")
		highest = fs.Bool("highest", false, "clique: report only the highest dimensionality reached")
		mdl     = fs.Bool("mdl", false, "clique: enable MDL subspace pruning")
		verbose = fs.Bool("v", false, "clique: list every cluster with its region description")

		// ORCLUS loop parameters.
		k0Factor = fs.Int("k0factor", 0, "orclus: initial-seed multiplier k0 = k0factor·k (0 = default)")
		alpha    = fs.Float64("alpha", 0, "orclus: cluster-count decay factor per merge round (0 = default)")
		outliers = fs.Bool("outliers", false, "orclus: discard points outside every sphere of influence")

		// k-medoids descent parameters.
		maxNb    = fs.Int("max-neighbors", 0, "kmedoids: neighbor swaps examined per local-search step (0 = default)")
		restarts = fs.Int("restarts", 0, "kmedoids: independent descents, best kept (0 = default)")

		assignOut = fs.String("assign", "", "optional path for a point→cluster assignment CSV")
	)
	obsFlags := cliflags.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, name := range registry.Names() {
			a, err := registry.Get(name)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%-10s %s\n", name, capsSummary(a.Caps()))
		}
		return nil
	}
	if *algo == "" || *in == "" {
		fs.Usage()
		return fmt.Errorf("-algo and -in are required (or -list)")
	}
	a, err := registry.Get(*algo)
	if err != nil {
		return err
	}
	caps := a.Caps()
	if err := checkFlags(fs, *algo, caps, *stream); err != nil {
		return err
	}
	sweeping := *sweepL != "" || *sweepK != ""
	sess, err := obsFlags.Start(os.Stderr)
	if err != nil {
		return err
	}
	defer func() {
		if err := sess.Close(); err != nil && retErr == nil {
			retErr = err
		}
	}()
	cfg := registry.Config{
		K: *k, L: *l, Seed: *seed, Workers: *workers,
		Clique: registry.CliqueParams{
			Xi: *xi, Tau: *tau, MaxDims: *maxDims, FixedDims: *fixed,
			ReportMaximal: *maximal, ReportHighest: *highest, MDLPruning: *mdl,
		},
		Orclus: registry.OrclusParams{
			K0Factor: *k0Factor, Alpha: *alpha, HandleOutliers: *outliers,
		},
		Medoid:   registry.MedoidParams{MaxNeighbors: *maxNb, Restarts: *restarts},
		Observer: sess.Observer, Metrics: sess.Metrics, Series: sess.Series,
	}
	// Sweeps call core directly, so the registry's check that PROCLUS
	// takes no other algorithm's parameters is repeated here.
	if sweeping && (cfg.Clique != (registry.CliqueParams{}) ||
		cfg.Orclus != (registry.OrclusParams{}) || cfg.Medoid != (registry.MedoidParams{})) {
		return fmt.Errorf("-sweepl/-sweepk: proclus does not take CLIQUE, ORCLUS or k-medoids parameters")
	}

	var (
		src     registry.Source
		labels  []int
		labeled bool
		mode    string
	)
	if *stream {
		if strings.HasSuffix(strings.ToLower(*in), ".csv") {
			return fmt.Errorf("-stream requires the binary dataset format (convert with datagen or dsstat)")
		}
		fsrc, err := dataset.OpenFileSource(*in, *blockPts)
		if err != nil {
			return err
		}
		src.Stream = fsrc
		mode = fmt.Sprintf(" (streamed, %d-point blocks)", fsrc.BlockPoints())
		labeled = fsrc.Labeled()
		if labeled {
			if labels, err = dataset.ScanLabels(*in); err != nil {
				return err
			}
		}
	} else {
		ds, err := dataset.LoadFile(*in, *hasLabels)
		if err != nil {
			return err
		}
		switch *normalize {
		case "":
		case "minmax":
			if _, _, err := ds.MinMaxScale(0, 100); err != nil {
				return err
			}
		case "zscore":
			ds.Standardize()
		default:
			return fmt.Errorf("unknown -normalize mode %q (want minmax or zscore)", *normalize)
		}
		src.Dataset = ds
		labeled = ds.Labeled()
		if labeled {
			labels = ds.Labels()
		}
	}

	// The run context flows through the session so the stall watchdog
	// (-stall-cancel) can abort a wedged run.
	ctx, cancel := sess.Context(context.Background())
	defer cancel()
	var (
		rep    *obs.RunReport
		as     []int
		native any
	)
	start := time.Now()
	if sweeping {
		res, err := sweep(out, src.Dataset, core.Config{
			K: *k, L: *l, Seed: *seed, Workers: *workers,
			Observer: sess.Observer, Metrics: sess.Metrics, Series: sess.Series,
		}, *sweepL, *sweepK)
		if err != nil {
			return err
		}
		rep, as, native = res.Report(), res.Assignments, res
	} else {
		m, err := registry.Fit(ctx, *algo, src, cfg)
		if err != nil {
			return err
		}
		rep, as, native = m.Report(), m.Assignments(), m.Unwrap()
	}
	elapsed := time.Since(start)
	rep.Dataset.Source = *in
	rep.Dataset.Labeled = labeled

	fmt.Fprintf(out, "%s%s: %d points × %d dims — %s\n",
		rep.Algorithm, mode, rep.Dataset.Points, rep.Dataset.Dims, elapsed.Round(time.Millisecond))
	if rep.Objective != 0 {
		fmt.Fprintf(out, "objective: %.4f\n", rep.Objective)
	}
	fmt.Fprintf(out, "clusters: %d\n", len(rep.Clusters))
	for _, cl := range rep.Clusters {
		fmt.Fprintf(out, "  cluster %3d: %6d points", cl.ID+1, cl.Size)
		if len(cl.Dimensions) > 0 {
			fmt.Fprintf(out, "  dimensions (1-based) %v", oneBased(cl.Dimensions))
		}
		fmt.Fprintln(out)
	}
	if rep.Outliers > 0 {
		fmt.Fprintf(out, "  outliers: %d\n", rep.Outliers)
	}

	quality := map[string]float64{}
	switch res := native.(type) {
	case *clique.Result:
		fmt.Fprintf(out, "dense units per subspace dimensionality: %v (levels reached: %d)\n",
			res.DenseBySubspaceDim[1:], res.Levels)
		if src.Dataset != nil {
			members := clique.Membership(src.Dataset, res)
			if ov, err := eval.AverageOverlap(members); err == nil {
				fmt.Fprintf(out, "average overlap: %.2f\n", ov)
			}
			if labeled {
				quality["coverage"] = eval.Coverage(labels, members)
				fmt.Fprintf(out, "cluster-point coverage: %.1f%%\n", 100*quality["coverage"])
			}
		} else {
			fmt.Fprintln(out, "overlap/coverage: skipped (membership needs the in-memory dataset; rerun without -stream to compute them)")
		}
		if *verbose {
			for i, cl := range res.Clusters {
				fmt.Fprintf(out, "cluster %3d: subspace %v, %d units, %d points\n",
					i+1, oneBased(cl.Dims), len(cl.Units), cl.Size)
				for _, reg := range clique.Describe(cl) {
					fmt.Fprintf(out, "             region %s\n", reg)
				}
			}
		}
	case *orclus.Result:
		fmt.Fprintf(out, "weighted projected energy: %.4f\n", res.TotalEnergy)
		for i, cl := range res.Clusters {
			fmt.Fprintf(out, "  cluster %3d: energy %.3f\n", i+1, cl.Energy)
		}
	}

	if labeled && as != nil {
		if caps.TakesK {
			cm, err := eval.NewConfusion(labels, as, len(rep.Clusters), numLabels(labels))
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "confusion matrix (output rows × input columns):\n%s", cm)
			quality["purity"] = cm.Purity()
			fmt.Fprintf(out, "purity: %.3f   ", quality["purity"])
		}
		if ari, err := eval.AdjustedRandIndex(labels, as); err == nil {
			fmt.Fprintf(out, "ARI: %.3f", ari)
			quality["ari"] = ari
		}
		if nmi, err := eval.NormalizedMutualInfo(labels, as); err == nil {
			fmt.Fprintf(out, "   NMI: %.3f", nmi)
			quality["nmi"] = nmi
		}
		fmt.Fprintln(out)
	} else if labeled {
		fmt.Fprintln(out, "quality: skipped (streamed fit holds no per-point assignments)")
	}

	if *assignOut != "" {
		if as == nil {
			return fmt.Errorf("-assign: %s holds no per-point assignments for this source (streamed fit)", rep.Algorithm)
		}
		if err := writeAssignments(*assignOut, as); err != nil {
			return err
		}
		fmt.Fprintf(out, "assignments written to %s\n", *assignOut)
	}
	if obsFlags.Report != "" {
		if err := rep.WriteFile(obsFlags.Report); err != nil {
			return err
		}
	}
	_, err = sess.ArchiveRun(rep, quality)
	return err
}

// checkFlags rejects, before the session opens any file or server, the
// flags the registry's Config check cannot see: the CLI's own flags that
// need a particular algorithm or source, and the telemetry flags an
// algorithm without per-iteration events or metrics cannot honour.
func checkFlags(fs *flag.FlagSet, algo string, caps registry.Caps, stream bool) error {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	sweeping := set["sweepl"] || set["sweepk"]
	rules := []struct {
		flags  []string
		reject bool
		why    string // follows "-<flag> "
	}{
		{[]string{"block-points"}, !stream, "requires -stream"},
		{[]string{"sweepl", "sweepk", "normalize"}, stream, "is incompatible with -stream: it needs the dataset in memory"},
		{[]string{"sweepl", "sweepk"}, algo != "proclus", "requires -algo proclus, not " + algo},
		{[]string{"sweepk"}, set["sweepl"], "cannot be combined with -sweepl"},
		{[]string{"l"}, set["sweepl"], "cannot be combined with -sweepl, which sets l"},
		{[]string{"k"}, set["sweepk"], "cannot be combined with -sweepk, which sets k"},
		{[]string{"stall-cancel"}, sweeping, "cannot abort a -sweepl/-sweepk sweep"},
		{[]string{"v"}, algo != "clique", "lists CLIQUE regions and requires -algo clique, not " + algo},
		{[]string{"series", "stall-iters", "stall-deadline", "stall-cancel"}, !caps.Series,
			"is unsupported: " + algo + " emits no per-iteration progress events"},
		{[]string{"metrics-addr"}, !caps.Metrics, "is unsupported: " + algo + " records no metrics"},
	}
	for _, r := range rules {
		if !r.reject {
			continue
		}
		for _, name := range r.flags {
			if set[name] {
				return fmt.Errorf("-%s %s", name, r.why)
			}
		}
	}
	return nil
}

// sweep runs the -sweepl or -sweepk range over ds, prints the objective
// curve with the suggested value marked, and returns the suggested run.
func sweep(out io.Writer, ds *dataset.Dataset, cfg core.Config, specL, specK string) (*core.Result, error) {
	spec, param := specL, "l"
	if specK != "" {
		spec, param = specK, "k"
	}
	lo, hi, err := parseRange(spec)
	if err != nil {
		return nil, err
	}
	var (
		values    []int
		results   []*core.Result
		suggested int
		why       string
	)
	if param == "l" {
		points, err := core.SweepL(ds, cfg, lo, hi)
		if err != nil {
			return nil, err
		}
		if suggested, err = core.SuggestL(points); err != nil {
			return nil, err
		}
		for _, p := range points {
			values, results = append(values, p.L), append(results, p.Result)
		}
		why = "objective elbow; see §4.3 of the paper"
	} else {
		points, err := core.SweepK(ds, cfg, lo, hi)
		if err != nil {
			return nil, err
		}
		if suggested, err = core.SuggestK(points); err != nil {
			return nil, err
		}
		for _, p := range points {
			values, results = append(values, p.K), append(results, p.Result)
		}
		why = "objective knee"
	}
	fmt.Fprintf(out, "%6s %12s %10s\n", param, "objective", "outliers")
	var best *core.Result
	for i, res := range results {
		marker := ""
		if values[i] == suggested {
			marker = "  ← suggested"
			best = res
		}
		fmt.Fprintf(out, "%6d %12.4f %10d%s\n", values[i], res.Objective, res.NumOutliers(), marker)
	}
	fmt.Fprintf(out, "\nsuggested %s: %d (%s)\n\n", param, suggested, why)
	return best, nil
}

func parseRange(spec string) (lo, hi int, err error) {
	parts := strings.SplitN(spec, ":", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("range %q must be min:max", spec)
	}
	lo, err = strconv.Atoi(parts[0])
	if err != nil {
		return 0, 0, fmt.Errorf("range %q: %w", spec, err)
	}
	hi, err = strconv.Atoi(parts[1])
	if err != nil {
		return 0, 0, fmt.Errorf("range %q: %w", spec, err)
	}
	return lo, hi, nil
}

// capsSummary renders an algorithm's capability set for -list.
func capsSummary(c registry.Caps) string {
	var parts []string
	add := func(ok bool, label string) {
		if ok {
			parts = append(parts, label)
		}
	}
	add(c.TakesK, "k")
	add(c.TakesL, "l")
	add(c.Stream, "stream")
	add(c.Series, "series")
	add(c.Workers, "workers")
	add(c.CliqueParams, "xi/tau")
	add(c.OrclusParams, "k0factor/alpha")
	add(c.MedoidParams, "max-neighbors/restarts")
	return strings.Join(parts, " ")
}

// writeAssignments writes the assignment CSV atomically: the rows go
// through a buffer to a temporary file in the destination directory,
// which is synced and only then renamed over path. A failed or
// interrupted run never leaves a partial file at path, nor the
// temporary file beside it.
func writeAssignments(path string, assignments []int) (retErr error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if retErr != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	w := bufio.NewWriter(f)
	// bufio.Writer keeps its first write error and Flush returns it, so
	// the per-row writes need no check of their own.
	w.WriteString("point,cluster\n")
	var row []byte
	for i, a := range assignments {
		row = strconv.AppendInt(row[:0], int64(i), 10)
		row = append(row, ',')
		row = strconv.AppendInt(row, int64(a), 10)
		row = append(row, '\n')
		w.Write(row)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

func oneBased(dims []int) []int {
	out := make([]int, len(dims))
	for i, d := range dims {
		out[i] = d + 1
	}
	return out
}

// numLabels is the number of ground-truth classes: the largest label
// plus one (outliers carry negative labels).
func numLabels(labels []int) int {
	n := 0
	for _, l := range labels {
		if l+1 > n {
			n = l + 1
		}
	}
	return n
}
