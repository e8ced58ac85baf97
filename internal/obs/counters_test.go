package obs

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"proclus/internal/obs/metrics"
)

// TestCounterTableCoversSnapshot pins the table to the Snapshot struct:
// one row per int64 field, in field order, each named by the field's
// JSON tag and reading exactly that field.
func TestCounterTableCoversSnapshot(t *testing.T) {
	st := reflect.TypeOf(Snapshot{})
	var fields []reflect.StructField
	for i := 0; i < st.NumField(); i++ {
		if st.Field(i).Type.Kind() == reflect.Int64 {
			fields = append(fields, st.Field(i))
		}
	}
	if len(fields) != int(NumCounters) {
		t.Fatalf("Snapshot has %d int64 fields, the table %d rows", len(fields), NumCounters)
	}
	for i, f := range fields {
		c := Counter(i)
		tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if c.Name() != tag {
			t.Errorf("counter %d is named %q, Snapshot field %s is tagged %q", i, c.Name(), f.Name, tag)
		}
		if counterTable[c].help == "" {
			t.Errorf("counter %s has no help text", c.Name())
		}
		var s Snapshot
		reflect.ValueOf(&s).Elem().FieldByIndex(f.Index).SetInt(int64(100 + i))
		if got := s.Get(c); got != int64(100+i) {
			t.Errorf("counter %s reads %d, want field %s = %d", c.Name(), got, f.Name, 100+i)
		}
	}
}

// TestCountersRoundTrip carries a distinct value per counter through
// Counters → Snapshot → Merge → Fold and checks every row survives.
func TestCountersRoundTrip(t *testing.T) {
	var c Counters
	for id := Counter(0); id < NumCounters; id++ {
		c[id].Add(int64(7 * (id + 1)))
	}
	s := c.Snapshot()
	var sum Snapshot
	sum.Merge(s)
	sum.Merge(s)
	all := make([]Counter, NumCounters)
	for id := range all {
		all[id] = Counter(id)
	}
	reg := metrics.NewRegistry()
	series := NewCounterSeries(reg, "algo", all...)
	series.Fold(&c)
	c[DistanceEvals].Add(1)
	series.Fold(&c)
	snap := reg.Snapshot()
	for id := Counter(0); id < NumCounters; id++ {
		want := int64(7 * (id + 1))
		if got := s.Get(id); got != want {
			t.Errorf("%s: snapshot %d, want %d", id.Name(), got, want)
		}
		if got := sum.Get(id); got != 2*want {
			t.Errorf("%s: merged %d, want %d", id.Name(), got, 2*want)
		}
		if id == DistanceEvals {
			want++
		}
		m := snap.Find(id.SeriesName("algo"))
		if m == nil || m.Value == nil || int64(*m.Value) != want || m.Help != counterTable[id].help {
			t.Errorf("%s: folded series %+v, want value %d", id.Name(), m, want)
		}
	}
}

// TestCounterSeriesNames pins the registered series to the names and
// help texts reports and dashboards already read: each algorithm's
// exported counters, plus the stream series only on streamed runs.
func TestCounterSeriesNames(t *testing.T) {
	stream := []string{"_stream_blocks_total", "_stream_bytes_total", "_stream_resident_points_peak"}
	cases := []struct {
		algo     string
		exported []Counter
		want     []string
	}{
		{"proclus", []Counter{DistanceEvals, CoordsVisited, PointsScanned, DistCacheHits, DistCacheRecomputes},
			[]string{"proclus_coords_visited_total", "proclus_distance_evals_total", "proclus_distcache_hits_total",
				"proclus_distcache_recomputes_total", "proclus_points_scanned_total"}},
		{"clique", []Counter{PointsScanned, DenseUnitProbes},
			[]string{"clique_dense_unit_probes_total", "clique_points_scanned_total"}},
	}
	names := func(reg *metrics.Registry) []string {
		var out []string
		for _, m := range reg.Snapshot() {
			out = append(out, m.Name)
		}
		return out
	}
	for _, tc := range cases {
		reg := metrics.NewRegistry()
		s := NewCounterSeries(reg, tc.algo, tc.exported...)
		if got := names(reg); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s in-memory series = %v, want %v", tc.algo, got, tc.want)
		}
		s.ObserveResidentPeak(5) // no-op before EnableStream
		s.EnableStream("resident help")
		s.ObserveResidentPeak(9)
		want := append([]string(nil), tc.want...)
		for _, suffix := range stream {
			want = append(want, tc.algo+suffix)
		}
		sort.Strings(want) // the registry snapshot is name-sorted
		if got := names(reg); !reflect.DeepEqual(got, want) {
			t.Errorf("%s streamed series = %v, want %v", tc.algo, got, want)
		}
		peak := reg.Snapshot().Find(tc.algo + "_stream_resident_points_peak")
		if peak == nil || *peak.Value != 9 || peak.Help != "resident help" {
			t.Errorf("%s resident peak = %+v", tc.algo, peak)
		}
	}
	var nilSeries *CounterSeries
	if NewCounterSeries(nil, "x", DistanceEvals) != nil {
		t.Error("nil registry yielded a CounterSeries")
	}
	nilSeries.EnableStream("")
	nilSeries.ObserveResidentPeak(1)
	nilSeries.Fold(&Counters{})
}

// TestCounterSeriesFoldsDeltas shares one registry between two runs:
// the series must accumulate both runs' totals, not the last one's.
func TestCounterSeriesFoldsDeltas(t *testing.T) {
	reg := metrics.NewRegistry()
	for run := 0; run < 2; run++ {
		var c Counters
		s := NewCounterSeries(reg, "algo", PointsScanned)
		c[PointsScanned].Add(10)
		s.Fold(&c)
		c[PointsScanned].Add(5)
		s.Fold(&c)
		s.Fold(&c)
	}
	if m := reg.Snapshot().Find(PointsScanned.SeriesName("algo")); m == nil || *m.Value != 30 {
		t.Errorf("shared-registry series = %+v, want 30", m)
	}
}
