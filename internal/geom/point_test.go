package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	p := Point{1, 2, 3}
	if got := p.Scale(2); !got.Equal(Point{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
	if p.Dims() != 3 {
		t.Errorf("Dims = %d", p.Dims())
	}
}

func TestPointCloneIndependent(t *testing.T) {
	p := Point{1, 2}
	q := p.Clone()
	q[0] = 99
	if p[0] != 1 {
		t.Fatal("Clone aliases the original")
	}
}

func TestPointEqual(t *testing.T) {
	cases := []struct {
		p, q Point
		want bool
	}{
		{Point{1, 2}, Point{1, 2}, true},
		{Point{1, 2}, Point{1, 3}, false},
		{Point{1, 2}, Point{1, 2, 3}, false},
		{Point{}, Point{}, true},
	}
	for _, c := range cases {
		if got := c.p.Equal(c.q); got != c.want {
			t.Errorf("%v.Equal(%v) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

func TestPointLerp(t *testing.T) {
	p := Point{0, 0}
	q := Point{2, 4}
	if got := p.Lerp(q, 0.5); !got.Equal(Point{1, 2}) {
		t.Errorf("Lerp(0.5) = %v", got)
	}
	if got := p.Lerp(q, 0); !got.Equal(p) {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := p.Lerp(q, 1); !got.Equal(q) {
		t.Errorf("Lerp(1) = %v", got)
	}
}

func TestPointAddInPlace(t *testing.T) {
	p := Point{1, 1}
	p.AddInPlace(Point{2, 3})
	if !p.Equal(Point{3, 4}) {
		t.Errorf("AddInPlace = %v", p)
	}
}

func TestPointNorm(t *testing.T) {
	if got := (Point{3, 4}).Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
	if got := (Point{}).Norm(); got != 0 {
		t.Errorf("empty Norm = %v", got)
	}
}

func TestPointIsFinite(t *testing.T) {
	if !(Point{1, 2}).IsFinite() {
		t.Error("finite point reported non-finite")
	}
	if (Point{1, math.NaN()}).IsFinite() {
		t.Error("NaN point reported finite")
	}
	if (Point{math.Inf(1)}).IsFinite() {
		t.Error("Inf point reported finite")
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Point{1}.AddInPlace(Point{1, 2})
}

func TestCentroid(t *testing.T) {
	pts := []Point{{0, 0}, {2, 0}, {1, 3}}
	if got := Centroid(pts); !got.Equal(Point{1, 1}) {
		t.Errorf("Centroid = %v", got)
	}
}

// Property: Lerp(q, t) lies on the segment — each coordinate between p and q.
func TestPropLerpWithinSegment(t *testing.T) {
	f := func(a, b float64, tRaw uint8) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		// Bound magnitudes so q-p cannot overflow.
		a = math.Mod(a, 1e12)
		b = math.Mod(b, 1e12)
		tt := float64(tRaw) / 255
		p, q := Point{a}, Point{b}
		v := p.Lerp(q, tt)[0]
		lo, hi := math.Min(a, b), math.Max(a, b)
		const slack = 1e-9
		return v >= lo-slack*(1+math.Abs(lo)) && v <= hi+slack*(1+math.Abs(hi))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
