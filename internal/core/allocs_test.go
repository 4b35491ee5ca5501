package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/parallel"
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

// TestDrawWeightCacheAllocs is the pooled weight cache's gate: once the
// pool is warm, a serial exact Draw over n in-memory points allocates
// fewer than n×8 bytes per run (a runtime.MemStats.TotalAlloc delta) —
// less than the one weight cache it keeps between its passes. It holds
// too for a Draw over stored densities, which reads them in place and
// never copies them.
func TestDrawWeightCacheAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation defeats the scratch pools this gate measures")
	}
	setup := stats.NewRNG(78)
	ds, _ := twoBlobs(20000, 20000, setup)
	est := buildKDE(t, ds, 150, setup)
	evaluated := Options{Alpha: 1, TargetSize: 400, Parallelism: 1}
	stored := evaluated
	stored.Densities = storedDensities(t, ds, est)

	for _, c := range []struct {
		name string
		opts Options
	}{{"evaluated", evaluated}, {"stored", stored}} {
		draw := func() {
			if _, err := Draw(ds, est, c.opts, stats.NewRNG(3)); err != nil {
				t.Fatal(err)
			}
		}
		draw() // warm the pools
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			draw()
		}
		runtime.ReadMemStats(&after)
		perRun := (after.TotalAlloc - before.TotalAlloc) / runs
		if limit := uint64(ds.Len()) * 8; perRun >= limit {
			t.Fatalf("%s: Draw allocates %d bytes per run over %d points, want < %d: the weight cache is not pooled or the densities are copied", c.name, perRun, ds.Len(), limit)
		}
	}
}

// TestPooledWeightCacheConcurrent: draws sharing the weight-cache pool —
// concurrent ones, and one started the moment a cancelled one returns —
// each equal their serial reference bit for bit. verify.sh runs it under
// -race too, where a cache still written after its release would also be
// reported.
func TestPooledWeightCacheConcurrent(t *testing.T) {
	setup := stats.NewRNG(79)
	ds, _ := twoBlobs(3000, 3000, setup)
	est := buildKDE(t, ds, 100, setup)
	opts := Options{Alpha: 1, TargetSize: 300, BlockSize: 256, Parallelism: 2}
	serial := opts
	serial.Parallelism = 1
	refs := make([]*Sample, 4)
	for i := range refs {
		var err error
		if refs[i], err = Draw(ds, est, serial, stats.NewRNG(uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}

	got := make([]*Sample, len(refs))
	errs := make([]error, len(refs))
	var wg sync.WaitGroup
	for i := range refs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = Draw(ds, est, opts, stats.NewRNG(uint64(i+1)))
		}(i)
	}
	wg.Wait()
	for i := range refs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		sameSample(t, refs[i], got[i], fmt.Sprintf("concurrent draw %d", i))
	}

	// Cancel in pass 1 (after its first block) and in pass 2, then draw
	// again at once: the next draw takes the cancelled one's cache.
	numBlocks := int64(parallel.NumBlocks(ds.Len(), opts.BlockSize))
	for _, at := range []int64{1, numBlocks + 2} {
		ctx, cancel := context.WithCancel(context.Background())
		var blocks atomic.Int64
		c := opts
		c.Ctx = ctx
		c.Progress = func(int, int) {
			if blocks.Add(1) == at {
				cancel()
			}
		}
		_, err := Draw(ds, est, c, stats.NewRNG(99))
		cancel()
		if !errors.Is(err, dataset.ErrCanceled) {
			t.Fatalf("cancel after block %d: err = %v, want ErrCanceled", at, err)
		}
		s, err := Draw(ds, est, opts, stats.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		sameSample(t, refs[0], s, fmt.Sprintf("draw after a cancel at block %d", at))
	}
}
