package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"strconv"

	"proclus"
)

// verifier checks every operation's assignment file. An operation
// fails when its file does not hold one cluster index per point, when
// its ARI against the ground truth falls below the workload's floor,
// or when its digest differs from the first operation's on the same
// input. Operations on one input repeat it and vary the worker count,
// and the result is documented to be bit-identical for any worker
// count, so one reference digest per input checks both.
type verifier struct {
	floor float64
	ref   map[int]reference
	ari   map[int]float64
}

type reference struct {
	digest  [sha256.Size]byte
	workers int
}

func newVerifier(floor float64) *verifier {
	return &verifier{floor: floor, ref: map[int]reference{}, ari: map[int]float64{}}
}

// check reads back the assignment file the operation on in wrote with
// the given worker count and returns its ARI.
func (v *verifier) check(in input, workers int) (float64, error) {
	data, err := os.ReadFile(in.out)
	if err != nil {
		return 0, err
	}
	assign, err := parseAssignments(data, len(in.labels))
	if err != nil {
		return 0, fmt.Errorf("%s: %w", in.out, err)
	}
	ari, err := proclus.AdjustedRandIndex(in.labels, assign)
	if err != nil {
		return 0, err
	}
	if ari < v.floor {
		return ari, fmt.Errorf("input %d: ARI %.4f below floor %.2f", in.index, ari, v.floor)
	}
	d := sha256.Sum256(data)
	if ref, ok := v.ref[in.index]; !ok {
		v.ref[in.index] = reference{digest: d, workers: workers}
		v.ari[in.index] = ari
	} else if ref.digest != d {
		return ari, fmt.Errorf("input %d: assignment digest at workers=%d differs from the first one, at workers=%d",
			in.index, workers, ref.workers)
	}
	return ari, nil
}

// meanARI is the mean ARI over the inputs checked so far.
func (v *verifier) meanARI() float64 {
	if len(v.ari) == 0 {
		return 0
	}
	sum := 0.0
	for _, a := range v.ari {
		sum += a
	}
	return sum / float64(len(v.ari))
}

// parseAssignments parses one cluster index in [-1, clusters) per line.
func parseAssignments(data []byte, n int) ([]int, error) {
	assign := make([]int, 0, n)
	for len(data) > 0 {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			return nil, fmt.Errorf("line %d: no line end", len(assign)+1)
		}
		a, err := strconv.Atoi(string(data[:i]))
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", len(assign)+1, err)
		}
		if a < -1 || a >= clusters {
			return nil, fmt.Errorf("line %d: cluster %d out of range", len(assign)+1, a)
		}
		assign = append(assign, a)
		data = data[i+1:]
	}
	if len(assign) != n {
		return nil, fmt.Errorf("%d assignments for %d points", len(assign), n)
	}
	return assign, nil
}
