package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMomentsBasic(t *testing.T) {
	var m Moments
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.Add(x)
	}
	if m.n != 8 {
		t.Errorf("count = %d", m.n)
	}
	if m.mean != 5 {
		t.Errorf("mean = %v", m.mean)
	}
	// population m2 = 32 → sample variance = 32/7
	if math.Abs(m.Variance()-32.0/7) > 1e-12 {
		t.Errorf("Variance = %v", m.Variance())
	}
}

func TestMomentsEmpty(t *testing.T) {
	var m Moments
	if m.mean != 0 || m.Variance() != 0 || m.n != 0 {
		t.Error("empty accumulator must read as zeros")
	}
}

func TestMomentsSingle(t *testing.T) {
	var m Moments
	m.Add(3)
	if m.Variance() != 0 {
		t.Errorf("variance of single sample = %v", m.Variance())
	}
	if m.mean != 3 {
		t.Errorf("mean of single sample = %v", m.mean)
	}
}

func TestMultiMoments(t *testing.T) {
	m := NewMultiMoments(2)
	m.Add([]float64{1, 10})
	m.Add([]float64{3, 30})
	if m.Dim(0).n != 2 || m.Dim(1).n != 2 {
		t.Fatalf("counts = %d/%d", m.Dim(0).n, m.Dim(1).n)
	}
	if m.Dim(0).mean != 2 || m.Dim(1).mean != 20 {
		t.Error("per-dim means wrong")
	}
}

func TestMultiMomentsDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMultiMoments(2).Add([]float64{1})
}

// Property: Welford mean equals naive mean for arbitrary finite inputs.
func TestPropWelfordMatchesNaive(t *testing.T) {
	f := func(xs []float64) bool {
		var m Moments
		var sum float64
		n := 0
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				continue
			}
			m.Add(x)
			sum += x
			n++
		}
		if n == 0 {
			return m.n == 0
		}
		naive := sum / float64(n)
		return math.Abs(m.mean-naive) <= 1e-6*(1+math.Abs(naive))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
