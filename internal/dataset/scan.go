package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// ScanLabelHistogram returns the ground-truth label counts of a labeled
// binary dataset file without reading the data section (see
// ScanLabels). It returns an error for unlabeled files.
func ScanLabelHistogram(path string) (map[int]int, error) {
	labels, err := ScanLabels(path)
	if err != nil {
		return nil, err
	}
	counts := make(map[int]int)
	for _, l := range labels {
		counts[l]++
	}
	return counts, nil
}

// ScanLabels returns the full ground-truth label slice of a labeled
// binary dataset file without reading the data section: it seeks
// directly to the label block. Streamed runs use it to evaluate against
// ground truth without materializing the points. The header is checked
// against the file's size first, so a header lying about its point
// count fails with an error instead of demanding memory. It returns an
// error for unlabeled files.
func ScanLabels(path string) ([]int, error) {
	f, _, h, err := openBinary(path, 4096)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if !h.labeled {
		return nil, fmt.Errorf("dataset: %s carries no labels", path)
	}
	offset := binaryHeaderSize + int64(h.n)*int64(h.dims)*8
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		return nil, fmt.Errorf("dataset: seeking to label block: %w", err)
	}
	r := bufio.NewReader(f)
	labels := make([]int, h.n)
	buf := make([]byte, 8)
	for i := range labels {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("dataset: reading label %d: %w", i, err)
		}
		labels[i] = int(int64(binary.LittleEndian.Uint64(buf)))
	}
	return labels, nil
}

// ColumnStats summarizes one dimension of a dataset.
type ColumnStats struct {
	Min, Max, Mean, StdDev float64
}

// ScanStats computes per-dimension statistics of a binary dataset file
// in one streaming pass over a FileSource (Welford's algorithm for the
// variance), without loading the data into memory.
func ScanStats(path string) (n int, stats []ColumnStats, err error) {
	src, err := OpenFileSource(path, 0)
	if err != nil {
		return 0, nil, err
	}
	d := src.Dims()
	stats = make([]ColumnStats, d)
	means := make([]float64, d)
	m2 := make([]float64, d)
	for j := range stats {
		stats[j].Min = math.Inf(1)
		stats[j].Max = math.Inf(-1)
	}
	err = src.Blocks(nil, func(b *Block) error {
		for i := 0; i < b.Len(); i++ {
			n++
			for j, v := range b.Point(i) {
				if v < stats[j].Min {
					stats[j].Min = v
				}
				if v > stats[j].Max {
					stats[j].Max = v
				}
				delta := v - means[j]
				means[j] += delta / float64(n)
				m2[j] += delta * (v - means[j])
			}
		}
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	if n == 0 {
		return 0, nil, fmt.Errorf("dataset: %s holds no points", path)
	}
	for j := range stats {
		stats[j].Mean = means[j]
		if n > 1 {
			stats[j].StdDev = math.Sqrt(m2[j] / float64(n-1))
		}
	}
	return n, stats, nil
}
