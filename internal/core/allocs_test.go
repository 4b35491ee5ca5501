package core

import (
	"testing"

	"repro/internal/stats"
)

// TestDrawSteadyStateAllocs is the allocation-regression gate verify.sh
// runs: once pools are warm, a serial Draw must perform zero
// per-block heap allocations. With 512 blocks in flight, any per-block
// allocation would blow the fixed per-draw budget immediately.
func TestDrawSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation defeats the scratch pools this gate measures")
	}
	setup := stats.NewRNG(77)
	ds, _ := twoBlobs(4096, 4096, setup)
	est := buildKDE(t, ds, 150, setup)
	opts := Options{Alpha: 1, TargetSize: 400, BlockSize: 16, Parallelism: 1}

	draw := func() {
		if _, err := Draw(ds, est, opts, stats.NewRNG(3)); err != nil {
			t.Fatal(err)
		}
	}
	draw() // warm the scratch pools
	const numBlocks = 512.0
	allocs := testing.AllocsPerRun(5, draw)
	// The fixed per-draw cost (weight cache, RNG streams, arena chunks,
	// result slices) is well under 100 allocations; per-block costs would
	// add ≥512 at this block size.
	if allocs >= 100 {
		t.Fatalf("Draw allocates %.0f objects per run over %v blocks — per-block allocation regression", allocs, numBlocks)
	}
}
