package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("bad summary: %+v", s)
	}
	if !almostEq(s.Mean, 3, 1e-12) {
		t.Fatalf("mean = %v", s.Mean)
	}
	if !almostEq(s.StdDev, math.Sqrt(2), 1e-9) {
		t.Fatalf("stddev = %v", s.StdDev)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary should be zero: %+v", s)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if !almostEq(Mean([]float64{2, 4}), 3, 1e-12) {
		t.Fatal("Mean wrong")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 10}, {25, 20}, {50, 30}, {75, 40}, {100, 50}, {10, 14},
	}
	for _, c := range cases {
		if got := percentileSorted(xs, c.p); !almostEq(got, c.want, 1e-9) {
			t.Errorf("percentileSorted(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileMonotonic(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, math.Mod(v, 1e6))
			}
		}
		if len(xs) == 0 {
			return true
		}
		sort.Float64s(xs)
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v := percentileSorted(xs, p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	BoxPlot(xs)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatal("BoxPlot's percentile computation mutated its input")
	}
}

func TestBoxPlot(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7}
	b := BoxPlot(xs)
	if b.N != 5 || b.Min != 1 || b.Max != 9 || b.Median != 5 {
		t.Fatalf("bad box: %+v", b)
	}
	if !almostEq(b.Mean, 5, 1e-12) {
		t.Fatalf("box mean: %v", b.Mean)
	}
	if b.Q1 > b.Median || b.Median > b.Q3 {
		t.Fatalf("quartiles out of order: %+v", b)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(10, 2) != 5 {
		t.Fatal("Ratio wrong")
	}
	if Ratio(10, 0) != 0 {
		t.Fatal("Ratio by zero should be 0")
	}
}

// TestBoxPlotMatchesPercentiles checks BoxPlot's quartiles against an
// independent closest-rank linear interpolation over a sorted copy.
func TestBoxPlotMatchesPercentiles(t *testing.T) {
	ref := func(xs []float64, p float64) float64 {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		pos := p / 100 * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (s[i+1]-s[i])*(pos-float64(i))
	}
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, math.Mod(v, 1e6))
			}
		}
		if len(xs) == 0 {
			return true
		}
		b := BoxPlot(xs)
		return almostEq(b.Median, ref(xs, 50), 1e-6) &&
			almostEq(b.Q1, ref(xs, 25), 1e-6) &&
			almostEq(b.Q3, ref(xs, 75), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
