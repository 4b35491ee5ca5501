package core

import (
	"math"
	"testing"
	"testing/quick"
)

// Property: for a > 0 the inclusion probability is monotone non-decreasing
// in the density; for a < 0 it is monotone non-increasing; for a = 0 it is
// constant. This is Property 1 of the paper made precise.
func TestPropInclusionMonotone(t *testing.T) {
	const (
		floor = 1e-6
		norm  = 1000.0
		b     = 100
	)
	clean := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 1
		}
		return math.Abs(math.Mod(v, 1e6))
	}
	f := func(f1, f2 float64, aRaw int8) bool {
		f1, f2 = clean(f1), clean(f2)
		if f1 > f2 {
			f1, f2 = f2, f1
		}
		alpha := float64(aRaw) / 32 // range ~[-4, 4)
		p1 := InclusionProb(f1, alpha, floor, norm, b)
		p2 := InclusionProb(f2, alpha, floor, norm, b)
		switch {
		case alpha > 0:
			return p1 <= p2+1e-12
		case alpha < 0:
			return p1 >= p2-1e-12
		default:
			return math.Abs(p1-p2) < 1e-12
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: inclusion probabilities always lie in [0, 1].
func TestPropInclusionInUnitInterval(t *testing.T) {
	f := func(fv, norm float64, b uint16, aRaw int8) bool {
		if math.IsNaN(fv) || math.IsNaN(norm) {
			return true
		}
		fv = math.Abs(math.Mod(fv, 1e9))
		norm = math.Abs(math.Mod(norm, 1e9)) + 1e-3
		alpha := float64(aRaw) / 32
		p := InclusionProb(fv, alpha, 1e-9, norm, int(b%10000)+1)
		return p >= 0 && p <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: biasedWeight treats the floor as a hard lower bound — any two
// densities at or below the floor get identical weights.
func TestPropFloorClamps(t *testing.T) {
	f := func(f1, f2, floorRaw float64) bool {
		if math.IsNaN(f1) || math.IsNaN(f2) || math.IsNaN(floorRaw) {
			return true
		}
		floor := math.Abs(math.Mod(floorRaw, 100)) + 0.1
		f1 = math.Mod(math.Abs(f1), floor)
		f2 = math.Mod(math.Abs(f2), floor)
		for _, a := range []float64{-1.5, -0.5, 0.5, 1.5} {
			if biasedWeight(f1, a, floor) != biasedWeight(f2, a, floor) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// InclusionProb returns the probability with which a point of density f
// would be included, given the run parameters: the paper's
// P(x ∈ S) = b·f'(x)/k_a clipped at 1, the oracle the property tests hold
// the samplers to.
func InclusionProb(f, alpha, floor, norm float64, targetSize int) float64 {
	p := float64(targetSize) * biasedWeight(f, alpha, floor) / norm
	if p > 1 {
		return 1
	}
	return p
}
