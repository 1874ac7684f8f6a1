package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPhiKnownValues(t *testing.T) {
	cases := []struct{ z, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145705},
		{2, 0.9772498680518208},
		{-3, 0.0013498980316300933},
	}
	for _, c := range cases {
		if got := Phi(c.z); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Phi(%v) = %v, want %v", c.z, got, c.want)
		}
	}
}

func TestPhiPhiCComplementary(t *testing.T) {
	f := func(raw float64) bool {
		z := math.Mod(raw, 6)
		if math.IsNaN(z) {
			return true
		}
		return math.Abs(Phi(z)+PhiC(z)-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInvPhiRoundTrip(t *testing.T) {
	for _, p := range []float64{1e-12, 1e-6, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-6} {
		z := InvPhi(p)
		back := Phi(z)
		if math.Abs(back-p) > 1e-7*math.Max(p, 1e-9)+1e-11 {
			t.Errorf("Phi(InvPhi(%g)) = %g", p, back)
		}
	}
}

func TestInvPhiSymmetry(t *testing.T) {
	for _, p := range []float64{0.001, 0.1, 0.25, 0.4} {
		if math.Abs(InvPhi(p)+InvPhi(1-p)) > 1e-8 {
			t.Errorf("InvPhi not antisymmetric at p=%v", p)
		}
	}
}

func TestInvPhiCDeepTail(t *testing.T) {
	// For very small q, PhiC(InvPhiC(q)) must recover q to good relative
	// precision: this is the path used by order-statistic sampling over
	// millions of cells.
	for _, q := range []float64{1e-15, 1e-12, 1e-9, 1e-6, 1e-3} {
		z := InvPhiC(q)
		back := PhiC(z)
		if math.Abs(back-q)/q > 1e-6 {
			t.Errorf("PhiC(InvPhiC(%g)) = %g (rel err %g)", q, back, math.Abs(back-q)/q)
		}
	}
}

func TestInvPhiPanicsOutOfDomain(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("InvPhi(%v) did not panic", p)
				}
			}()
			InvPhi(p)
		}()
	}
}

func TestMaxNormalZGrowsWithN(t *testing.T) {
	r := New(21)
	meanOf := func(n int) float64 {
		sum := 0.0
		const reps = 2000
		for i := 0; i < reps; i++ {
			sum += r.MaxNormalZ(n)
		}
		return sum / reps
	}
	m10 := meanOf(10)
	m1k := meanOf(1000)
	m1M := meanOf(1000000)
	if !(m10 < m1k && m1k < m1M) {
		t.Fatalf("max order statistic not increasing: %v %v %v", m10, m1k, m1M)
	}
	// E[max of 1e6 normals] is about 4.86.
	if m1M < 4.5 || m1M > 5.2 {
		t.Fatalf("max of 1e6 normals mean %v outside [4.5, 5.2]", m1M)
	}
}

func TestExpectedMaxNormalZ(t *testing.T) {
	// Compare against Monte Carlo.
	r := New(33)
	for _, n := range []int{10, 1000, 100000} {
		sum := 0.0
		const reps = 4000
		for i := 0; i < reps; i++ {
			sum += r.MaxNormalZ(n)
		}
		mc := sum / reps
		est := ExpectedMaxNormalZ(n)
		if math.Abs(mc-est) > 0.08 {
			t.Errorf("n=%d: ExpectedMaxNormalZ=%v, MC=%v", n, est, mc)
		}
	}
}

func TestBinomialMoments(t *testing.T) {
	r := New(29)
	cases := []struct {
		n int
		p float64
	}{
		{10, 0.3},     // direct flips
		{1000, 0.01},  // inversion
		{100000, 0.2}, // normal approximation
	}
	for _, c := range cases {
		const reps = 5000
		var sum, sumSq float64
		for i := 0; i < reps; i++ {
			k := float64(r.Binomial(c.n, c.p))
			sum += k
			sumSq += k * k
		}
		mean := sum / reps
		wantMean := float64(c.n) * c.p
		variance := sumSq/reps - mean*mean
		wantVar := wantMean * (1 - c.p)
		if math.Abs(mean-wantMean) > 4*math.Sqrt(wantVar/reps)+0.05 {
			t.Errorf("Binomial(%d,%v) mean %v, want %v", c.n, c.p, mean, wantMean)
		}
		if variance < wantVar*0.85 || variance > wantVar*1.15 {
			t.Errorf("Binomial(%d,%v) variance %v, want ~%v", c.n, c.p, variance, wantVar)
		}
	}
}

func TestBinomialEdgeCases(t *testing.T) {
	r := New(31)
	if r.Binomial(0, 0.5) != 0 {
		t.Error("Binomial(0, p) != 0")
	}
	if r.Binomial(100, 0) != 0 {
		t.Error("Binomial(n, 0) != 0")
	}
	if r.Binomial(100, 1) != 100 {
		t.Error("Binomial(n, 1) != n")
	}
	if r.Binomial(-5, 0.5) != 0 {
		t.Error("Binomial(-n, p) != 0")
	}
}

func TestBinomialWithinRange(t *testing.T) {
	r := New(37)
	f := func(nRaw uint16, pRaw uint16) bool {
		n := int(nRaw % 2000)
		p := float64(pRaw) / 65535
		k := r.Binomial(n, p)
		return k >= 0 && k <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
