package stream

import (
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/stats"
)

// The estimator must satisfy core's full estimator surface.
var (
	_ core.DensityEstimator = (*Estimator)(nil)
	_ interface {
		Centers() []geom.Point
		N() int
	} = (*Estimator)(nil)
)

func TestCMSketchNeverUndercounts(t *testing.T) {
	sk, err := NewCMSketch(256, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(7)
	keys := make([]uint64, 500)
	for i := range keys {
		keys[i] = rng.Uint64() % 64 // heavy collisions on purpose
		sk.Add(keys[i])
	}
	mult := map[uint64]int64{}
	for _, k := range keys {
		mult[k]++
	}
	for k, m := range mult {
		if got := sk.Count(k); got < m {
			t.Fatalf("key %d count %d < true %d", k, got, m)
		}
	}
}

func TestCMSketchValidation(t *testing.T) {
	if _, err := NewCMSketch(0, 4, 1); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := NewCMSketch(16, 0, 1); err == nil {
		t.Error("zero depth accepted")
	}
}

// denseSparse returns points with 90% in a tight blob and 10% spread out.
func denseSparse(n int, rng *stats.RNG) []geom.Point {
	pts := make([]geom.Point, 0, n)
	for i := 0; i < n; i++ {
		if i%10 != 0 {
			pts = append(pts, geom.Point{0.2 + 0.05*rng.Float64(), 0.2 + 0.05*rng.Float64()})
		} else {
			pts = append(pts, geom.Point{0.6 + 0.35*rng.Float64(), 0.6 + 0.35*rng.Float64()})
		}
	}
	return pts
}

func TestEstimatorDensityOrderingBothBackends(t *testing.T) {
	for _, backend := range []struct {
		name string
		make func() (*Estimator, error)
	}{
		{"sketch", func() (*Estimator, error) { return New(geom.UnitCube(2), Options{Seed: 3}) }},
		{"asg", func() (*Estimator, error) { return NewASG(geom.UnitCube(2), Options{Seed: 3}) }},
	} {
		e, err := backend.make()
		if err != nil {
			t.Fatal(err)
		}
		pts := denseSparse(8000, stats.NewRNG(11))
		if err := e.Observe(pts); err != nil {
			t.Fatal(err)
		}
		if e.N() != len(pts) {
			t.Errorf("%s: N = %d, want %d", backend.name, e.N(), len(pts))
		}
		if len(e.Centers()) == 0 {
			t.Errorf("%s: no probe centers", backend.name)
		}
		dense := e.Density(geom.Point{0.22, 0.22})
		sparse := e.Density(geom.Point{0.8, 0.8})
		if dense <= sparse {
			t.Errorf("%s: dense density %v <= sparse %v", backend.name, dense, sparse)
		}
	}
}

// TestEstimatorObserveRejectsWholeBatch: a batch holding a point of the
// wrong dimension is refused before any of its points reach the
// sketches or the probe reservoir, so the estimator reads as if the
// batch never arrived.
func TestEstimatorObserveRejectsWholeBatch(t *testing.T) {
	e, err := New(geom.UnitCube(2), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bad := []geom.Point{{0.5, 0.5}, {0.5, 0.5}, {0.1, 0.2, 0.3}}
	if err := e.Observe(bad); err == nil {
		t.Fatal("batch with a 3-d point accepted by a 2-d estimator")
	}
	if got := e.Density(geom.Point{0.5, 0.5}); got != 0 {
		t.Errorf("density after a rejected batch = %v, want 0", got)
	}
	if e.N() != 0 || len(e.Centers()) != 0 {
		t.Errorf("after a rejected batch N = %d with %d probes, want 0 and 0", e.N(), len(e.Centers()))
	}
}

// TestEstimatorMemoryBounded: sketch memory is O(width × depth) and the
// probe storage is one fixed-size reservoir — streaming 20x more points
// through must not grow the estimator.
func TestEstimatorMemoryBounded(t *testing.T) {
	measure := func(batches int) int {
		e, err := New(geom.UnitCube(2), Options{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRNG(31)
		for g := 0; g < batches; g++ {
			if err := e.Observe(denseSparse(500, rng)); err != nil {
				t.Fatal(err)
			}
		}
		return e.Bytes()
	}
	short, long := measure(5), measure(100)
	if long > short {
		t.Errorf("estimator grew with stream length: %d bytes after 100 batches, %d after 5", long, short)
	}
	if sketchOnly := 8 * (1 << 14) * 4; short < sketchOnly {
		t.Errorf("Bytes %d under counter floor %d", short, sketchOnly)
	}
}
