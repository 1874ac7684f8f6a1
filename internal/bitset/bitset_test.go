package bitset

import (
	"math/rand"
	"testing"
)

func TestSetBasics(t *testing.T) {
	s := New(128)
	if s.Len() != 0 || s.Contains(0) || s.Contains(127) {
		t.Fatal("new set not empty")
	}
	s.Add(0)
	s.Add(63)
	s.Add(64)
	s.Add(127)
	s.Add(63) // duplicate: Len must not double-count
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	for _, i := range []int{0, 63, 64, 127} {
		if !s.Contains(i) {
			t.Fatalf("missing %d", i)
		}
	}
	if s.Contains(1) || s.Contains(128) || s.Contains(1<<20) {
		t.Fatal("phantom member")
	}
}

func TestSetGrowsAndOf(t *testing.T) {
	s := New(0)
	s.Add(1_000_000)
	if !s.Contains(1_000_000) || s.Len() != 1 {
		t.Fatal("growth broken")
	}
	of := Of(3, 5, 3)
	if of.Len() != 2 || !of.Contains(3) || !of.Contains(5) || of.Contains(4) {
		t.Fatal("Of broken")
	}
}

func TestNilSafety(t *testing.T) {
	var s *Set
	if s.Contains(7) || s.Len() != 0 {
		t.Fatal("nil set not empty")
	}
	if Of().Contains(-1) {
		t.Fatal("negative key contained")
	}
}

func TestAgainstMapReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	ref := map[int]bool{}
	s := New(512)
	for i := 0; i < 2000; i++ {
		k := r.Intn(4096)
		ref[k] = true
		s.Add(k)
	}
	if s.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(ref))
	}
	for k := 0; k < 4096; k++ {
		if s.Contains(k) != ref[k] {
			t.Fatalf("Contains(%d) = %v, ref %v", k, s.Contains(k), ref[k])
		}
	}
}

func BenchmarkContains(b *testing.B) {
	s := New(1 << 20)
	for i := 0; i < 1<<20; i += 37 {
		s.Add(i)
	}
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		if s.Contains(i & (1<<20 - 1)) {
			hits++
		}
	}
	_ = hits
}
