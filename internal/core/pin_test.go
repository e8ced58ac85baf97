package core

// Output pins for both entry points over the ablation branches no
// report golden covers: {InitGreedy, InitRandom} × {SkipRefinement off,
// on} × {MetricSegmental, MetricManhattan}. Each case is pinned by a
// SHA-256 digest of everything the clustering decides — assignments,
// medoids, dimension sets, centroids and the float bits of the
// objective and the trial trace — so a refactor of the engine must
// reproduce every case bit for bit, at every worker count, block size
// and source kind. A mismatch prints the new digest; paste it only
// when an output change is intended.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"proclus/internal/dataset"
	"proclus/internal/synth"
)

// runDigestPins holds Run's digests per pinCases name.
var runDigestPins = map[string]string{
	"greedy/refine/segmental": "8acbf06ec1a3eb62cf2948fc0b36e3cc30342b175f179f31b02718392ca8cd3a",
	"greedy/refine/manhattan": "75d908fe94a341ccd4d2fa495e4b9454a9cd4916b9f04e73ab57ec3c5bfe068e",
	"greedy/skip/segmental":   "41215704c838b7da8c3d881931f0c87ca81e4261e8fda55a8ea5e499f8469502",
	"greedy/skip/manhattan":   "f3a062565ef82eb5a3c8e71a011e8ce87c6ef2225e8cb88a12d68708ea7988c1",
	"random/refine/segmental": "09828645a3dc0a33870824ed829418625b2517435b420e37ea98d665b77a9f1d",
	"random/refine/manhattan": "534f56d481e8dde21209288d23137d585e3bcb95cac866c4a2c71ac95c573e21",
	"random/skip/segmental":   "f52e422e5805a55d37bc9c1459128b184526dc5ad2cee89c9be7167c193b2c1d",
	"random/skip/manhattan":   "f9de3c4811d8298d4615fd249dbc7d3afa0c50496edff70855a1af0e28020199",
}

// streamDigestPins holds RunStream's digests per pinCases name.
var streamDigestPins = map[string]string{
	"greedy/refine/segmental": "6684087743e94bc8fd526328c076cb4cace1afb241a00fd787b54a91b25de1cf",
	"greedy/refine/manhattan": "a533a757e715fed82dd13e8458236242c2b76a6b1275dc957f895feae6dccf84",
	"greedy/skip/segmental":   "70254f652d9d4814eb4426bc777079649062a18beb30920769e7dc175b40466d",
	"greedy/skip/manhattan":   "65592c7b502e4e6648e9711d3eddbb26ddcd3c77068798d3c33d660067dd19ad",
	"random/refine/segmental": "72ed548954a1e392ae880deaae003a9ef710f73ba9c8c22f3e90d2fe930b5713",
	"random/refine/manhattan": "e91eab258e64a7e585c4b8d95121e44387c2d0763287609356fed315d34547ee",
	"random/skip/segmental":   "ce244070472cf780661f34cdca939ce0a825a02d3e5dbc389cdd875e201ca9d2",
	"random/skip/manhattan":   "74f949f483071817d4f25db2c2d3092f1b553c2fd4c283003880cda395fa2d59",
}

type pinCase struct {
	name string
	cfg  Config
}

// pinCases enumerates the eight ablation branches on one configuration.
func pinCases() []pinCase {
	var cases []pinCase
	for _, init := range []InitMethod{InitGreedy, InitRandom} {
		for _, skip := range []bool{false, true} {
			for _, metric := range []AssignMetric{MetricSegmental, MetricManhattan} {
				phase := "refine"
				if skip {
					phase = "skip"
				}
				cases = append(cases, pinCase{
					name: fmt.Sprintf("%s/%s/%s", init, phase, metric),
					cfg: Config{K: 3, L: 3, Seed: 23, Restarts: 2, MaxNoImprove: 8,
						InitMethod: init, SkipRefinement: skip, AssignMetric: metric},
				})
			}
		}
	}
	return cases
}

func pinData(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, _, err := synth.Generate(synth.Config{
		N: 900, Dims: 8, K: 3, FixedDims: 3, MinSizeFraction: 0.15, Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// resultDigest hashes the decided content of a Result.
func resultDigest(res *Result) string {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	putInt := func(v int) { put(uint64(int64(v))) }
	putFloat := func(v float64) { put(math.Float64bits(v)) }
	putInt(len(res.Assignments))
	for _, a := range res.Assignments {
		putInt(a)
	}
	putInt(len(res.Clusters))
	for _, cl := range res.Clusters {
		putInt(cl.Medoid)
		putInt(len(cl.Dimensions))
		for _, d := range cl.Dimensions {
			putInt(d)
		}
		for _, v := range cl.Centroid {
			putFloat(v)
		}
	}
	putFloat(res.Objective)
	putInt(len(res.Stats.ObjectiveTrace))
	for _, v := range res.Stats.ObjectiveTrace {
		putFloat(v)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func checkPin(t *testing.T, label, want string, res *Result) {
	t.Helper()
	if got := resultDigest(res); got != want {
		t.Errorf("%s: digest %s, want %s", label, got, want)
	}
}

// TestRunDigestPins pins Run at one and four workers.
func TestRunDigestPins(t *testing.T) {
	ds := pinData(t)
	for _, pc := range pinCases() {
		for _, workers := range []int{1, 4} {
			cfg := pc.cfg
			cfg.Workers = workers
			res, err := Run(ds, cfg)
			if err != nil {
				t.Fatalf("%s: %v", pc.name, err)
			}
			checkPin(t, fmt.Sprintf("%s/workers=%d", pc.name, workers), runDigestPins[pc.name], res)
		}
	}
}

// TestStreamDigestPins pins RunStream over a MemorySource and a
// FileSource at two block sizes, at one and four workers.
func TestStreamDigestPins(t *testing.T) {
	ds := pinData(t)
	path := streamTestFile(t, ds)
	for _, pc := range pinCases() {
		for _, bp := range []int{37, 256} {
			for _, workers := range []int{1, 4} {
				fs, err := dataset.OpenFileSource(path, bp)
				if err != nil {
					t.Fatal(err)
				}
				for kind, src := range map[string]PointSource{
					"memory": dataset.NewMemorySource(ds, bp),
					"file":   fs,
				} {
					cfg := pc.cfg
					cfg.Workers = workers
					res, err := RunStream(context.Background(), src, cfg)
					if err != nil {
						t.Fatalf("%s/%s: %v", pc.name, kind, err)
					}
					checkPin(t, fmt.Sprintf("%s/%s/block=%d/workers=%d", pc.name, kind, bp, workers),
						streamDigestPins[pc.name], res)
				}
			}
		}
	}
}
