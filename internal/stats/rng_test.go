package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("seeds 1 and 2 collided %d times in 64 draws", same)
	}
}

func TestRNGSplitsDeterministicAndDistinct(t *testing.T) {
	// Two parents with equal state must derive identical stream sets, and
	// the streams within one set must be pairwise distinct.
	a := NewRNG(11)
	b := NewRNG(11)
	sa := a.Splits(8)
	sb := b.Splits(8)
	firsts := map[uint64]int{}
	for i := range sa {
		va, vb := sa[i].Uint64(), sb[i].Uint64()
		if va != vb {
			t.Fatalf("stream %d differs between equal parents", i)
		}
		if j, dup := firsts[va]; dup {
			t.Fatalf("streams %d and %d start identically", i, j)
		}
		firsts[va] = i
	}
	// The parent advances exactly once, regardless of n.
	c, d := NewRNG(11), NewRNG(11)
	c.Splits(2)
	d.Splits(100)
	if c.Uint64() != d.Uint64() {
		t.Error("Splits advanced the parent by an n-dependent amount")
	}
	// A prefix of a larger set equals the smaller set: streams are a pure
	// function of (draw, index).
	e, f := NewRNG(11), NewRNG(11)
	small, large := e.Splits(3), f.Splits(10)
	for i := range small {
		if small[i].Uint64() != large[i].Uint64() {
			t.Fatalf("stream %d depends on the set size", i)
		}
	}
	if got := NewRNG(1).Splits(0); got != nil {
		t.Errorf("Splits(0) = %v, want nil", got)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(5)
	var m Moments
	for i := 0; i < 200000; i++ {
		m.Add(r.Float64())
	}
	if math.Abs(m.mean-0.5) > 0.01 {
		t.Errorf("uniform mean = %v, want ~0.5", m.mean)
	}
	// Var of U[0,1) is 1/12 ≈ 0.0833.
	if math.Abs(m.Variance()-1.0/12) > 0.005 {
		t.Errorf("uniform variance = %v, want ~0.0833", m.Variance())
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(11)
	seen := make([]bool, 10)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		seen[v] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Errorf("value %d never drawn in 10000 tries", i)
		}
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := NewRNG(13)
	const n, draws = 7, 70000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d deviates from %v", i, c, want)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(17)
	var m Moments
	for i := 0; i < 200000; i++ {
		m.Add(r.NormFloat64())
	}
	if math.Abs(m.mean) > 0.02 {
		t.Errorf("normal mean = %v", m.mean)
	}
	if math.Abs(m.Variance()-1) > 0.03 {
		t.Errorf("normal variance = %v", m.Variance())
	}
}

func TestNormalScaling(t *testing.T) {
	r := NewRNG(19)
	var m Moments
	for i := 0; i < 100000; i++ {
		m.Add(r.Normal(10, 2))
	}
	if math.Abs(m.mean-10) > 0.05 {
		t.Errorf("mean = %v", m.mean)
	}
	if math.Abs(m.StdDev()-2) > 0.05 {
		t.Errorf("stddev = %v", m.StdDev())
	}
}

func TestBernoulli(t *testing.T) {
	r := NewRNG(29)
	if r.Bernoulli(0) {
		t.Error("Bernoulli(0) returned true")
	}
	if !r.Bernoulli(1) {
		t.Error("Bernoulli(1) returned false")
	}
	hits := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	if math.Abs(float64(hits)/draws-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) rate = %v", float64(hits)/draws)
	}
}

// Property: Intn(n) is always within bounds for arbitrary positive n.
func TestPropIntnInBounds(t *testing.T) {
	r := NewRNG(41)
	f := func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
