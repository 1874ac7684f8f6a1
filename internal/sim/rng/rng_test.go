package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64Deterministic(t *testing.T) {
	if SplitMix64(42) != SplitMix64(42) {
		t.Fatal("SplitMix64 not deterministic")
	}
	if SplitMix64(1) == SplitMix64(2) {
		t.Fatal("SplitMix64 collision on adjacent inputs")
	}
}

func TestKeyOrderSensitivity(t *testing.T) {
	if Key(1, 2) == Key(2, 1) {
		t.Fatal("Key must depend on argument order")
	}
	if Key(1, 2, 3) == Key(1, 2) {
		t.Fatal("Key must depend on argument count")
	}
	if Key(7, 8, 9) != Key(7, 8, 9) {
		t.Fatal("Key not deterministic")
	}
}

func TestKeyAvalancheProperty(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	f := func(a, b uint64, bit uint8) bool {
		k1 := Key(a, b)
		k2 := Key(a^(1<<(bit%64)), b)
		diff := popcount(k1 ^ k2)
		return diff >= 10 && diff <= 54
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

func TestRandReproducible(t *testing.T) {
	a, b := New(123), New(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("stream diverged at step %d", i)
		}
	}
}

func TestRandSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(9)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
		o := r.OpenFloat64()
		if o <= 0 || o >= 1 {
			t.Fatalf("OpenFloat64 out of (0,1): %v", o)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(7)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean %v too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(11)
	seen := make(map[int]int)
	for i := 0; i < 30000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v]++
	}
	for k := 0; k < 10; k++ {
		if seen[k] < 2000 {
			t.Fatalf("value %d underrepresented: %d", k, seen[k])
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := New(5)
	p := r.Perm(64)
	seen := make([]bool, 64)
	for _, v := range p {
		if v < 0 || v >= 64 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestNormMoments(t *testing.T) {
	r := New(13)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		z := r.Norm()
		sum += z
		sumSq += z * z
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func quickSelectMedian(v []float64) float64 {
	// Simple selection via partial sort; n is small enough.
	k := len(v) / 2
	lo, hi := 0, len(v)-1
	for lo < hi {
		p := v[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for v[i] < p {
				i++
			}
			for v[j] > p {
				j--
			}
			if i <= j {
				v[i], v[j] = v[j], v[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return v[k]
}
