package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRectBasics(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{2, 4})
	if r.Dims() != 2 {
		t.Errorf("Dims = %d", r.Dims())
	}
	if got := r.Volume(); got != 8 {
		t.Errorf("Volume = %v", got)
	}
	if got := r.Side(1); got != 4 {
		t.Errorf("Side(1) = %v", got)
	}
}

func TestNewRectInvertedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for inverted rect")
		}
	}()
	NewRect(Point{1}, Point{0})
}

func TestUnitCube(t *testing.T) {
	c := UnitCube(3)
	if c.Volume() != 1 {
		t.Errorf("unit cube volume = %v", c.Volume())
	}
	if !c.Contains(Point{0.5, 0.5, 0.5}) || c.Contains(Point{1.5, 0, 0}) {
		t.Error("unit cube containment wrong")
	}
}

func TestRectContainsBoundary(t *testing.T) {
	r := NewRect(Point{0}, Point{1})
	if !r.Contains(Point{0}) || !r.Contains(Point{1}) {
		t.Error("closed rect must contain its boundary")
	}
}

func TestRectIntersects(t *testing.T) {
	a := NewRect(Point{0, 0}, Point{1, 1})
	b := NewRect(Point{1, 1}, Point{2, 2})
	c := NewRect(Point{1.1, 0}, Point{2, 1})
	if !a.Intersects(b) {
		t.Error("touching rects should intersect")
	}
	if a.Intersects(c) {
		t.Error("disjoint rects should not intersect")
	}
}

func TestRectExtend(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{1, 1})
	r.Extend(Point{2, -1})
	if !r.Min.Equal(Point{0, -1}) || !r.Max.Equal(Point{2, 1}) {
		t.Errorf("Extend = %v", r)
	}
}

func TestRectMinMaxDist(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{1, 1})
	if got := r.MinDist(Point{0.5, 0.5}); got != 0 {
		t.Errorf("MinDist inside = %v", got)
	}
	if got := r.MinDist(Point{2, 1}); got != 1 {
		t.Errorf("MinDist outside = %v", got)
	}
}

func TestBoundingRect(t *testing.T) {
	r := BoundingRect([]Point{{1, 5}, {-2, 3}, {0, 7}})
	if !r.Min.Equal(Point{-2, 3}) || !r.Max.Equal(Point{1, 7}) {
		t.Errorf("BoundingRect = %v", r)
	}
}

// Property: MinDist ≤ the distance to the box's center for points and
// boxes in general position.
func TestPropRectDistanceEnvelope(t *testing.T) {
	f := func(ax, ay, bx, by, px, py float64) bool {
		norm := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 100)
		}
		ax, ay, bx, by, px, py = norm(ax), norm(ay), norm(bx), norm(by), norm(px), norm(py)
		r := NewRect(
			Point{math.Min(ax, bx), math.Min(ay, by)},
			Point{math.Max(ax, bx), math.Max(ay, by)},
		)
		p := Point{px, py}
		dc := Distance(p, r.Min.Lerp(r.Max, 0.5))
		const eps = 1e-9
		return r.MinDist(p) <= dc+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
