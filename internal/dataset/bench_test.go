package dataset

import (
	"bytes"
	"testing"
)

func benchDataset(b *testing.B, n, d int) *Dataset {
	b.Helper()
	ds := randomDataset(1, n, d, true)
	return ds
}

func BenchmarkWriteBinary(b *testing.B) {
	ds := benchDataset(b, 10000, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := ds.WriteBinary(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadBinary(b *testing.B) {
	ds := benchDataset(b, 10000, 20)
	var buf bytes.Buffer
	if err := ds.WriteBinary(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadBinary(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteCSV(b *testing.B) {
	ds := benchDataset(b, 10000, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := ds.WriteCSV(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadCSV(b *testing.B) {
	ds := benchDataset(b, 10000, 20)
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadCSV(bytes.NewReader(raw), true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPointAccess(b *testing.B) {
	ds := benchDataset(b, 10000, 20)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		ds.Each(func(_ int, p []float64) {
			sink += p[0]
		})
	}
	_ = sink
}
