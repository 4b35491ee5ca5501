package dataset

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// ErrCanceled is the typed error a block scan returns when its
// ScanConfig.Ctx is done; it is parallel.ErrCanceled, re-exported so scan
// callers need not import the scheduling package to test for it.
var ErrCanceled = parallel.ErrCanceled

func checkRange(start, end, n int) error {
	if start < 0 || end < start || end > n {
		return fmt.Errorf("dataset: range [%d, %d) out of [0, %d)", start, end, n)
	}
	return nil
}

// eachPoint is ScanRange over resident rows: fn for every point of pts,
// with ErrStopScan ending the read cleanly.
func eachPoint(pts []geom.Point, fn func(p geom.Point) error) error {
	for _, p := range pts {
		if err := fn(p); err != nil {
			return stopToNil(err)
		}
	}
	return nil
}

// blockBuf is the reusable per-block point buffer for datasets that cannot
// hand out slices of their own storage: one flat coordinate array with the
// points aliased into it.
type blockBuf struct {
	coords []float64
	pts    []geom.Point
}

var blockBufPool = sync.Pool{New: func() interface{} { return new(blockBuf) }}

func (b *blockBuf) fit(n, dims int) {
	if cap(b.coords) < n*dims {
		b.coords = make([]float64, n*dims)
	}
	b.coords = b.coords[:n*dims]
	if cap(b.pts) < n {
		b.pts = make([]geom.Point, n)
	}
	b.pts = b.pts[:n]
	for i := range b.pts {
		b.pts[i] = geom.Point(b.coords[i*dims : (i+1)*dims])
	}
}

// ReadRows hands fn the rows [start, end) of ds as one slice: a subslice
// of the resident snapshot when ds is Sliceable and the snapshot covers
// the range, otherwise the range read with ds.ScanRange into a pooled
// block buffer. The slice (and its points) is only valid during the call;
// retain with Clone. fn's error is returned unchanged. It charges no pass.
func ReadRows(ds Dataset, start, end int, fn func(pts []geom.Point) error) error {
	if sl, ok := ds.(Sliceable); ok {
		if pts := sl.Points(); len(pts) >= end {
			return fn(pts[start:end])
		}
	}
	buf := blockBufPool.Get().(*blockBuf)
	defer blockBufPool.Put(buf)
	buf.fit(end-start, ds.Dims())
	i := 0
	if err := ds.ScanRange(start, end, func(p geom.Point) error {
		copy(buf.pts[i], p)
		i++
		return nil
	}); err != nil {
		return err
	}
	if i != end-start {
		return fmt.Errorf("dataset: range [%d, %d) yielded %d points", start, end, i)
	}
	return fn(buf.pts)
}

// ScanConfig configures a block scan. The zero value is the default block
// size on all CPUs, uncancelled and unrecorded.
type ScanConfig struct {
	// BlockSize is the points per block (0 = parallel.DefaultBlockSize).
	BlockSize int
	// Parallelism bounds the scan workers (0 = all CPUs, 1 = serial).
	Parallelism int
	// Ctx, when non-nil, cancels the scan: it is checked once per block
	// (coarse — a block in flight always completes), and a done context
	// aborts the pass with ErrCanceled. Cancellation never changes the
	// blocks a completing scan delivers.
	Ctx context.Context
	// Rec, when non-nil, is fed the scan's observability: one data pass,
	// the points delivered per block, and the worker-pool accounting.
	// Recording is per-block, never per-point, and does not affect which
	// blocks run or what fn sees.
	Rec *obs.Recorder
	// Progress, when non-nil, is invoked after each completed block with
	// the cumulative points delivered and the dataset size. Blocks finish
	// in unspecified order under parallelism, so `done` advances
	// monotonically but in block-sized jumps of any origin; the callback
	// must be safe for concurrent use (obs.NewProgressPrinter is).
	Progress func(done, total int)
}

// ScanBlocks performs one logical pass over ds as a sequence of index
// blocks, invoking fn(block, start, pts) once per block with the block's
// rows as ReadRows delivers them. Blocks are fixed by the dataset length
// and block size alone (parallel.BlockRange), never by the worker count,
// so a reduction that combines per-block results in block order is
// deterministic for any parallelism.
//
// Blocks run on a bounded worker pool, concurrently unless cfg.Parallelism
// is 1, so fn must be safe for concurrent invocation. The pts slice (and
// its points) is only valid during the call; retain with Clone.
//
// The whole call counts as one pass. A block callback returning ErrStopScan
// stops the scheduling of further blocks and ScanBlocks returns nil; any
// other error aborts the scan and is returned.
func ScanBlocks(ds Dataset, cfg ScanConfig, fn func(block, start int, pts []geom.Point) error) error {
	n := ds.Len()
	ds.AddPass()
	// Each logical pass is one "scan" span of cfg.Rec, carrying the
	// dataset's points, and so one "scan" event in a traced request's log:
	// a cache-hit request performs no passes and therefore shows zero
	// scan spans — the property the serving tests pin.
	span := cfg.Rec.StartSpan("scan")
	span.AddPoints(int64(n))
	defer span.End()

	if cfg.Rec != nil || cfg.Progress != nil {
		cfg.Rec.Counter(obs.CtrDataPasses).Inc()
		cPoints := cfg.Rec.Counter(obs.CtrPointsScanned)
		var done atomic.Int64
		inner := fn
		fn = func(block, start int, pts []geom.Point) error {
			err := inner(block, start, pts)
			if err == nil {
				cPoints.Add(int64(len(pts)))
				if cfg.Progress != nil {
					cfg.Progress(int(done.Add(int64(len(pts)))), n)
				}
			}
			return err
		}
	}

	return stopToNil(parallel.BlocksCtxObs(cfg.Ctx, n, parallel.BlockSize(cfg.BlockSize), cfg.Parallelism, cfg.Rec, func(b, start, end int) error {
		return ReadRows(ds, start, end, func(pts []geom.Point) error {
			return fn(b, start, pts)
		})
	}))
}

// stopToNil converts a callback's ErrStopScan into a clean stop.
func stopToNil(err error) error {
	if errors.Is(err, ErrStopScan) {
		return nil
	}
	return err
}
