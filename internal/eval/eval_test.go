package eval

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/synth"
)

func twoTruth() []synth.Cluster {
	return []synth.Cluster{
		{Shape: synth.Box{R: geom.NewRect(geom.Point{0.1, 0.1}, geom.Point{0.3, 0.3})}, Size: 100},
		{Shape: synth.Box{R: geom.NewRect(geom.Point{0.6, 0.6}, geom.Point{0.9, 0.9})}, Size: 100},
	}
}

func TestFoundByRepsAllInside(t *testing.T) {
	truth := twoTruth()
	found := [][]geom.Point{
		{{0.15, 0.15}, {0.2, 0.2}, {0.25, 0.25}}, // all in cluster 0
	}
	got := FoundByReps(found, truth, 0.9)
	if !got[0] || got[1] {
		t.Errorf("found = %v, want [true false]", got)
	}
}

func TestFoundByRepsBelowThreshold(t *testing.T) {
	truth := twoTruth()
	// 2 of 3 reps inside cluster 0 (66% < 90%): not found.
	found := [][]geom.Point{
		{{0.15, 0.15}, {0.2, 0.2}, {0.5, 0.5}},
	}
	got := FoundByReps(found, truth, 0.9)
	if got[0] || got[1] {
		t.Errorf("found = %v, want none", got)
	}
	// With a 60% rule it counts.
	got = FoundByReps(found, truth, 0.6)
	if !got[0] {
		t.Error("60% rule should accept 2/3")
	}
}

func TestFoundByRepsMergedClusterFindsNothing(t *testing.T) {
	truth := twoTruth()
	// A discovered cluster straddling both true clusters (merge failure)
	// has no 90% majority and finds neither.
	found := [][]geom.Point{
		{{0.2, 0.2}, {0.2, 0.25}, {0.7, 0.7}, {0.8, 0.8}},
	}
	got := FoundByReps(found, truth, 0.9)
	if got[0] || got[1] {
		t.Errorf("merged cluster should find nothing, got %v", got)
	}
}

func TestFoundByRepsDefaultFraction(t *testing.T) {
	truth := twoTruth()
	found := [][]geom.Point{{{0.2, 0.2}}}
	if got := FoundByReps(found, truth, 0); !got[0] {
		t.Error("minFrac=0 should apply the default 0.9 rule")
	}
}

func TestFoundByCenters(t *testing.T) {
	truth := twoTruth()
	centers := []geom.Point{{0.2, 0.2}, {0.5, 0.5}}
	got := FoundByCenters(centers, truth)
	if !got[0] || got[1] {
		t.Errorf("centers found = %v", got)
	}
}

func TestCountTrue(t *testing.T) {
	if CountTrue([]bool{true, false, true}) != 2 {
		t.Error("CountTrue broken")
	}
	if CountTrue(nil) != 0 {
		t.Error("CountTrue(nil) != 0")
	}
}

func TestSetMetrics(t *testing.T) {
	pred := []geom.Point{{1, 1}, {2, 2}, {9, 9}}
	truth := []geom.Point{{1, 1}, {2, 2}, {3, 3}}
	prec, rec := SetMetrics(pred, truth, 1e-9)
	if math.Abs(prec-2.0/3) > 1e-12 || math.Abs(rec-2.0/3) > 1e-12 {
		t.Errorf("prec/rec = %v/%v", prec, rec)
	}
}

func TestSetMetricsEmpty(t *testing.T) {
	prec, rec := SetMetrics(nil, nil, 0)
	if prec != 1 || rec != 1 {
		t.Errorf("empty/empty = %v/%v", prec, rec)
	}
	prec, rec = SetMetrics(nil, []geom.Point{{1}}, 0)
	if prec != 1 || rec != 0 {
		t.Errorf("nil/pred = %v/%v", prec, rec)
	}
}
