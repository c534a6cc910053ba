package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must yield same stream")
		}
	}
	c := NewRand(43)
	same := true
	a = NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds yielded identical stream")
	}
}

func TestFloat64Range(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRand(seed)
		for i := 0; i < 50; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestExpMean(t *testing.T) {
	r := NewRand(99)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(5)
	}
	mean := sum / n
	if math.Abs(mean-5) > 0.1 {
		t.Fatalf("Exp mean = %v, want ~5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%50 + 1
		p := NewRand(seed).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(p) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(1.8, 1000)
	r := NewRand(5)
	counts := make([]int, 1000)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Next(r)]++
	}
	// With s=1.8 the most popular item dominates; rank 0 should receive far
	// more hits than rank 9.
	if counts[0] < 5*counts[9] {
		t.Fatalf("zipf 1.8 not skewed enough: rank0=%d rank9=%d", counts[0], counts[9])
	}
	// Ratio of rank0 to rank1 should approximate 2^1.8 ~= 3.48.
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 2.8 || ratio > 4.3 {
		t.Fatalf("rank0/rank1 = %v, want ~3.48", ratio)
	}
}

func TestZipfRange(t *testing.T) {
	f := func(seed uint64) bool {
		z := NewZipf(1.2, 37)
		r := NewRand(seed)
		for i := 0; i < 100; i++ {
			v := z.Next(r)
			if v < 0 || v >= 37 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZipfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipf(0, 10) should panic")
		}
	}()
	NewZipf(0, 10)
}
