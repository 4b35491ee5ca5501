package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEuclidean(t *testing.T) {
	d := Distance(Point{0, 0}, Point{3, 4})
	if d != 5 {
		t.Errorf("euclidean = %v", d)
	}
}

func TestSquaredDistanceConsistent(t *testing.T) {
	p := Point{1, 2}
	q := Point{4, 6}
	if got := SquaredDistance(p, q); got != 25 {
		t.Errorf("SquaredDistance = %v", got)
	}
	if got := Distance(p, q); got != 5 {
		t.Errorf("Distance = %v", got)
	}
}

func TestUnitBallVolume(t *testing.T) {
	cases := []struct {
		d    int
		r    float64
		want float64
	}{
		{1, 1, 2},       // segment length 2
		{2, 1, math.Pi}, // disc area
		{3, 1, 4 * math.Pi / 3},
		{2, 2, 4 * math.Pi}, // scales with r^d
	}
	for _, c := range cases {
		got := UnitBallVolume(c.d, c.r)
		if math.Abs(got-c.want) > 1e-9*c.want {
			t.Errorf("V_%d(%g) = %v, want %v", c.d, c.r, got, c.want)
		}
	}
}

// Property: the Euclidean distance satisfies symmetry, identity, and the
// triangle inequality on random 3-D points.
func TestPropMetricAxioms(t *testing.T) {
	clean := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return math.Mod(v, 1e6)
	}
	f := func(a1, a2, a3, b1, b2, b3, c1, c2, c3 float64) bool {
		p := Point{clean(a1), clean(a2), clean(a3)}
		q := Point{clean(b1), clean(b2), clean(b3)}
		r := Point{clean(c1), clean(c2), clean(c3)}
		dpq, dqp := Distance(p, q), Distance(q, p)
		if math.Abs(dpq-dqp) > 1e-9*(1+dpq) {
			return false
		}
		if Distance(p, p) != 0 || dpq < 0 {
			return false
		}
		// triangle: d(p,r) <= d(p,q) + d(q,r) up to float slack
		return Distance(p, r) <= dpq+Distance(q, r)+1e-6*(1+dpq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
