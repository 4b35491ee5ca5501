package core

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/stats"
)

// Attaching a Recorder must not perturb the draw: for a fixed seed the
// sample is byte-identical with observability off (nil Recorder) and on,
// at the serial and the parallel worker counts — the acceptance criterion
// of the observability layer. The draw's density batches count their kde
// traversal into the same Recorder for the enabled runs.
func TestDrawDeterministicWithRecorder(t *testing.T) {
	setup := stats.NewRNG(100)
	ds, _ := twoBlobs(4000, 4000, setup)
	est := buildKDE(t, ds, 300, setup)

	for _, onePass := range []bool{false, true} {
		for _, workers := range []int{1, 8} {
			opts := Options{Alpha: 1, TargetSize: 800, BlockSize: 512, Parallelism: workers, OnePass: onePass}
			ref, err := Draw(ds, est, opts, stats.NewRNG(7))
			if err != nil {
				t.Fatal(err)
			}

			rec := obs.New()
			opts.Obs = rec
			opts.VerifyNorm = true // the diagnostic pass must not change the sample either
			got, err := Draw(ds, est, opts, stats.NewRNG(7))
			if err != nil {
				t.Fatal(err)
			}
			label := "exact"
			if onePass {
				label = "onepass"
			}
			sameSample(t, ref, got, label)

			// The recorder must actually have seen the run.
			if v := rec.Counter(obs.CtrCoinFlips).Value(); v != int64(ds.Len()) {
				t.Fatalf("%s p=%d: coin_flips_total = %d, want %d", label, workers, v, ds.Len())
			}
			if v := rec.Counter(obs.CtrSampled).Value(); v != int64(len(got.Points)) {
				t.Fatalf("%s p=%d: sample_points_total = %d, want %d", label, workers, v, len(got.Points))
			}
			if rec.Gauge(obs.GaugeSampleNorm).Value() != got.Norm {
				t.Fatalf("%s p=%d: sample_norm gauge %v, want %v", label, workers, rec.Gauge(obs.GaugeSampleNorm).Value(), got.Norm)
			}
		}
	}
}

// VerifyNorm's rel-error gauge must be small on a well-resolved one-pass
// draw and must not add visible data passes to the sample's accounting.
func TestVerifyNormGauge(t *testing.T) {
	setup := stats.NewRNG(42)
	ds, _ := twoBlobs(3000, 3000, setup)
	est := buildKDE(t, ds, 300, setup)

	rec := obs.New()
	opts := Options{Alpha: 1, TargetSize: 500, OnePass: true, VerifyNorm: true, Obs: rec, Parallelism: 1}
	s, err := Draw(ds, est, opts, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if s.DataPasses != 1 {
		t.Fatalf("DataPasses = %d, want 1 (verify pass is diagnostic only)", s.DataPasses)
	}
	relErr := rec.Gauge(obs.GaugeNormRelError).Value()
	if relErr < 0 || relErr > 0.5 {
		t.Fatalf("sample_norm_rel_error = %v, want a small non-negative value", relErr)
	}
}
