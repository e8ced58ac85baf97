package dist

import (
	"math"
	"sync/atomic"
	"testing"
	"testing/quick"

	"proclus/internal/randx"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

func TestManhattanKnownValues(t *testing.T) {
	cases := []struct {
		x, y []float64
		want float64
	}{
		{[]float64{0, 0}, []float64{3, 4}, 7},
		{[]float64{1, 2, 3}, []float64{1, 2, 3}, 0},
		{[]float64{-1, -2}, []float64{1, 2}, 6},
		{[]float64{}, []float64{}, 0},
	}
	for _, c := range cases {
		if got := Manhattan(c.x, c.y); !almostEqual(got, c.want) {
			t.Errorf("Manhattan(%v,%v) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
}

func TestEuclideanKnownValues(t *testing.T) {
	if got := Euclidean([]float64{0, 0}, []float64{3, 4}); !almostEqual(got, 5) {
		t.Errorf("Euclidean 3-4-5 = %v", got)
	}
	if got := SquaredEuclidean([]float64{0, 0}, []float64{3, 4}); !almostEqual(got, 25) {
		t.Errorf("SquaredEuclidean = %v", got)
	}
}

func TestChebyshev(t *testing.T) {
	if got := Chebyshev([]float64{1, 5, 2}, []float64{4, 4, 4}); !almostEqual(got, 3) {
		t.Errorf("Chebyshev = %v, want 3", got)
	}
}

func TestLpMatchesSpecialCases(t *testing.T) {
	r := randx.New(5)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(16)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = r.Uniform(-50, 50)
			y[i] = r.Uniform(-50, 50)
		}
		if l1, m := Lp(1, x, y), Manhattan(x, y); !almostEqual(l1, m) {
			t.Fatalf("Lp(1) = %v != Manhattan %v", l1, m)
		}
		if l2, e := Lp(2, x, y), Euclidean(x, y); !almostEqual(l2, e) {
			t.Fatalf("Lp(2) = %v != Euclidean %v", l2, e)
		}
	}
}

func TestLpPanicsBelowOne(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Lp(0.5) did not panic")
		}
	}()
	Lp(0.5, []float64{1}, []float64{2})
}

func TestSegmentalKnownValues(t *testing.T) {
	x := []float64{0, 10, 20, 30}
	y := []float64{1, 12, 20, 34}
	// dims {0,1}: (1 + 2)/2 = 1.5
	if got := Segmental(x, y, []int{0, 1}); !almostEqual(got, 1.5) {
		t.Errorf("Segmental dims{0,1} = %v, want 1.5", got)
	}
	// dims {3}: 4
	if got := Segmental(x, y, []int{3}); !almostEqual(got, 4) {
		t.Errorf("Segmental dims{3} = %v, want 4", got)
	}
	// All dims should match SegmentalAll.
	if a, b := Segmental(x, y, []int{0, 1, 2, 3}), SegmentalAll(x, y); !almostEqual(a, b) {
		t.Errorf("Segmental all dims %v != SegmentalAll %v", a, b)
	}
}

func TestSegmentalPanicsOnEmptyDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Segmental with empty dims did not panic")
		}
	}()
	Segmental([]float64{1}, []float64{2}, nil)
}

func TestSegmentalAllPanicsOnZeroDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SegmentalAll on empty points did not panic")
		}
	}()
	SegmentalAll(nil, nil)
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Manhattan with mismatched lengths did not panic")
		}
	}()
	Manhattan([]float64{1, 2}, []float64{1})
}

// Metric axioms, checked property-style on random vectors.

func randVec(r *randx.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.Uniform(-100, 100)
	}
	return v
}

func TestMetricAxioms(t *testing.T) {
	fns := map[string]Func{
		"manhattan": Manhattan,
		"euclidean": Euclidean,
		"chebyshev": Chebyshev,
		"segmental": SegmentalAll,
	}
	r := randx.New(99)
	for name, f := range fns {
		for trial := 0; trial < 200; trial++ {
			n := 1 + r.Intn(12)
			x, y, z := randVec(r, n), randVec(r, n), randVec(r, n)
			if d := f(x, x); !almostEqual(d, 0) {
				t.Fatalf("%s: d(x,x) = %v != 0", name, d)
			}
			if f(x, y) < 0 {
				t.Fatalf("%s: negative distance", name)
			}
			if a, b := f(x, y), f(y, x); !almostEqual(a, b) {
				t.Fatalf("%s: asymmetric: %v vs %v", name, a, b)
			}
			if f(x, z) > f(x, y)+f(y, z)+1e-9 {
				t.Fatalf("%s: triangle inequality violated", name)
			}
		}
	}
}

func TestSegmentalSubsetAveraging(t *testing.T) {
	// Property: Segmental over dims D equals mean of the per-dimension
	// absolute differences restricted to D.
	prop := func(seed uint64) bool {
		r := randx.New(seed)
		n := 2 + r.Intn(12)
		x, y := randVec(r, n), randVec(r, n)
		nd := 1 + r.Intn(n)
		dims := r.Perm(n)[:nd]
		var want float64
		for _, j := range dims {
			want += math.Abs(x[j] - y[j])
		}
		want /= float64(nd)
		return almostEqual(Segmental(x, y, dims), want)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"manhattan", "l1", "euclidean", "l2", "chebyshev", "linf", "segmental"} {
		if f, ok := ByName(name); !ok || f == nil {
			t.Errorf("ByName(%q) not resolved", name)
		}
	}
	if _, ok := ByName("cosine"); ok {
		t.Error("ByName(cosine) unexpectedly resolved")
	}
}

func TestCounted(t *testing.T) {
	var n atomic.Int64
	f := Counted(Manhattan, &n)
	x, y := []float64{0, 0}, []float64{1, 2}
	if got := f(x, y); got != 3 {
		t.Fatalf("Counted changed the value: got %v, want 3", got)
	}
	f(x, y)
	f(y, x)
	if n.Load() != 3 {
		t.Fatalf("counter = %d, want 3", n.Load())
	}
}

// TestLpIntegerFastPath checks the multiplication-based integer kernel
// against the general math.Pow form for p = 1..5, and pins the exact
// dispatches: Lp(1) must be bit-identical to Manhattan.
func TestLpIntegerFastPath(t *testing.T) {
	powLp := func(p float64, x, y []float64) float64 {
		var s float64
		for i := range x {
			s += math.Pow(math.Abs(x[i]-y[i]), p)
		}
		return math.Pow(s, 1/p)
	}
	r := randx.New(17)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(16)
		x, y := randVec(r, n), randVec(r, n)
		for p := 1; p <= 5; p++ {
			if got, want := Lp(float64(p), x, y), powLp(float64(p), x, y); !almostEqual(got, want) {
				t.Fatalf("Lp(%d) = %v, pow form = %v", p, got, want)
			}
		}
		if got, want := Lp(1, x, y), Manhattan(x, y); got != want {
			t.Fatalf("Lp(1) = %v not bit-identical to Manhattan %v", got, want)
		}
		if got, want := Lp(2.5, x, y), powLp(2.5, x, y); got != want {
			t.Fatalf("fractional Lp(2.5) changed: %v vs %v", got, want)
		}
	}
}

// TestPowInt pins the square-and-multiply kernel: bit-identical to the
// old multiply chain for e ≤ 3 and within an ulp-scale tolerance of
// math.Pow beyond that.
func TestPowInt(t *testing.T) {
	chain := func(d float64, e int) float64 {
		pw := d
		for i := 1; i < e; i++ {
			pw *= d
		}
		return pw
	}
	r := randx.New(13)
	for trial := 0; trial < 500; trial++ {
		d := r.Float64() * 10
		for e := 1; e <= 3; e++ {
			if got, want := powInt(d, e), chain(d, e); got != want {
				t.Fatalf("powInt(%v,%d) = %v not bit-identical to chain %v", d, e, got, want)
			}
		}
		for e := 4; e <= 9; e++ {
			if got, want := powInt(d, e), math.Pow(d, float64(e)); !almostEqual(got, want) {
				t.Fatalf("powInt(%v,%d) = %v, math.Pow = %v", d, e, got, want)
			}
		}
	}
	if got := powInt(0, 3); got != 0 {
		t.Fatalf("powInt(0,3) = %v, want 0", got)
	}
	if got := powInt(2, 10); got != 1024 {
		t.Fatalf("powInt(2,10) = %v, want 1024", got)
	}
}

// randDims draws a random non-empty dimension subset of [0, n).
func randDims(r *randx.Rand, n int) []int {
	var dims []int
	for j := 0; j < n; j++ {
		if r.Intn(2) == 0 {
			dims = append(dims, j)
		}
	}
	if len(dims) == 0 {
		dims = []int{r.Intn(n)}
	}
	return dims
}
