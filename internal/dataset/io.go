package dataset

import (
	"bufio"
	"encoding/binary"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
)

// CSV layout: one row per point, coordinates as decimal floats. When the
// dataset is labeled, a final "label" column holds the ground-truth
// cluster index (or -1 for outliers). An optional header row is written
// as dim0..dimN[,label] and recognized on read.

// WriteCSV writes the dataset to w in CSV form, with a header row.
func (ds *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, 0, ds.dims+1)
	for j := 0; j < ds.dims; j++ {
		header = append(header, fmt.Sprintf("dim%d", j))
	}
	if ds.Labeled() {
		header = append(header, "label")
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("dataset: writing CSV header: %w", err)
	}
	row := make([]string, len(header))
	n := ds.Len()
	for i := 0; i < n; i++ {
		p := ds.Point(i)
		for j, v := range p {
			row[j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if ds.Labeled() {
			row[ds.dims] = strconv.Itoa(ds.Label(i))
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("dataset: writing CSV row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads a dataset from CSV. If hasLabels is true the final
// column is parsed as the ground-truth label. A first row whose cells do
// not parse as numbers is treated as a header and skipped.
func ReadCSV(r io.Reader, hasLabels bool) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	var ds *Dataset
	rowNum := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV: %w", err)
		}
		rowNum++
		dims := len(rec)
		if hasLabels {
			dims--
		}
		if dims <= 0 {
			return nil, fmt.Errorf("dataset: CSV row %d has no coordinate columns", rowNum)
		}
		if ds == nil {
			// Header detection: if the first cell is not numeric, skip.
			if _, err := strconv.ParseFloat(rec[0], 64); err != nil {
				ds = New(dims)
				continue
			}
			ds = New(dims)
		}
		if dims != ds.dims {
			return nil, fmt.Errorf("dataset: CSV row %d has %d dims, want %d", rowNum, dims, ds.dims)
		}
		p := make([]float64, dims)
		for j := 0; j < dims; j++ {
			v, err := strconv.ParseFloat(rec[j], 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: CSV row %d col %d: %w", rowNum, j, err)
			}
			p[j] = v
		}
		if hasLabels {
			l, err := strconv.Atoi(rec[dims])
			if err != nil {
				return nil, fmt.Errorf("dataset: CSV row %d label: %w", rowNum, err)
			}
			ds.AppendLabeled(p, l)
		} else {
			ds.Append(p)
		}
	}
	if ds == nil || ds.Len() == 0 {
		return nil, fmt.Errorf("dataset: CSV input contains no points")
	}
	return ds, ds.Validate()
}

// Binary layout (little-endian):
//
//	magic   [4]byte  "PCDS"
//	version uint32   1
//	dims    uint32
//	n       uint64
//	labeled uint8    0 or 1
//	data    n*dims float64
//	labels  n int64 (only if labeled)
//
// The binary format exists for the large scalability inputs (Figure 7
// uses up to 500k×20 points); it round-trips exactly and loads without
// per-cell parsing.

var binaryMagic = [4]byte{'P', 'C', 'D', 'S'}

const binaryVersion = 1

// binaryHeaderSize is the byte length of the fixed header:
// magic(4) + version(4) + dims(4) + n(8) + labeled(1).
const binaryHeaderSize = 4 + 4 + 4 + 8 + 1

// WriteBinary writes the dataset in the repository's binary format.
func (ds *Dataset) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return fmt.Errorf("dataset: writing binary magic: %w", err)
	}
	hdr := []any{uint32(binaryVersion), uint32(ds.dims), uint64(ds.Len())}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("dataset: writing binary header: %w", err)
		}
	}
	labeled := uint8(0)
	if ds.Labeled() {
		labeled = 1
	}
	if err := binary.Write(bw, binary.LittleEndian, labeled); err != nil {
		return fmt.Errorf("dataset: writing binary header: %w", err)
	}
	buf := make([]byte, 8)
	for _, v := range ds.data {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
		if _, err := bw.Write(buf); err != nil {
			return fmt.Errorf("dataset: writing binary data: %w", err)
		}
	}
	if ds.Labeled() {
		for _, l := range ds.labels {
			binary.LittleEndian.PutUint64(buf, uint64(int64(l)))
			if _, err := bw.Write(buf); err != nil {
				return fmt.Errorf("dataset: writing binary labels: %w", err)
			}
		}
	}
	return bw.Flush()
}

// ReadBinary reads a dataset previously written by WriteBinary.
func ReadBinary(r io.Reader) (*Dataset, error) {
	br := bufio.NewReader(r)
	// readBlockHeader bounds dims and n, and the points are read one at
	// a time into storage that grows with actual file content, so a
	// header declaring billions of points fails at EOF after a small
	// allocation rather than up-front exhaustion (found by
	// FuzzReadBinary).
	h, err := readBlockHeader(br)
	if err != nil {
		return nil, err
	}
	ds := New(h.dims)
	rowBuf := make([]byte, 8*h.dims)
	for i := 0; i < h.n; i++ {
		if _, err := io.ReadFull(br, rowBuf); err != nil {
			return nil, fmt.Errorf("dataset: reading binary data: %w", err)
		}
		for j := 0; j < h.dims; j++ {
			ds.data = append(ds.data, math.Float64frombits(binary.LittleEndian.Uint64(rowBuf[8*j:])))
		}
	}
	if h.labeled {
		buf := make([]byte, 8)
		for i := 0; i < h.n; i++ {
			if _, err := io.ReadFull(br, buf); err != nil {
				return nil, fmt.Errorf("dataset: reading binary labels: %w", err)
			}
			ds.labels = append(ds.labels, int(int64(binary.LittleEndian.Uint64(buf))))
		}
	}
	return ds, ds.Validate()
}

// SaveFile writes the dataset to path; the format is chosen by file
// extension (".csv" → CSV, anything else → binary).
func (ds *Dataset) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataset: creating %s: %w", path, err)
	}
	defer f.Close()
	if hasCSVExt(path) {
		if err := ds.WriteCSV(f); err != nil {
			return err
		}
	} else if err := ds.WriteBinary(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a dataset from path; the format is chosen by file
// extension (".csv" → CSV with a label column expected iff hasLabels,
// anything else → binary, which is self-describing).
func LoadFile(path string, hasLabels bool) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: opening %s: %w", path, err)
	}
	defer f.Close()
	if hasCSVExt(path) {
		return ReadCSV(f, hasLabels)
	}
	return ReadBinary(f)
}

func hasCSVExt(path string) bool {
	return len(path) >= 4 && path[len(path)-4:] == ".csv"
}
