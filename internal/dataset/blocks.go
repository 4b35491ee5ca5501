package dataset

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
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

// RangeScanner is implemented by datasets that can scan an arbitrary
// index range [start, end) independently of a full pass. ScanRange must be
// safe for concurrent use — each call owns its own cursor (a slice index,
// a private file handle) — which is what allows block scans to read many
// ranges of one dataset at the same time. ScanRange does not count toward
// Passes; the pass bookkeeping belongs to the orchestrating scan.
type RangeScanner interface {
	Dataset
	ScanRange(start, end int, fn func(p geom.Point) error) error
}

// PassCounter lets ScanBlocks charge exactly one logical pass to the
// dataset types that track passes. It is exported so wrappers (fault
// injectors, instrumentation) can delegate the charge to the dataset
// they wrap instead of losing the bookkeeping.
type PassCounter interface{ AddPass() }

// AddPass charges one logical dataset pass.
func (m *InMemory) AddPass() { m.passes.Add(1) }

// AddPass charges one logical dataset pass.
func (fb *FileBacked) AddPass() { fb.passes.Add(1) }

// ScanRange implements RangeScanner over the backing slice. The range is
// resolved against the snapshot current at call time.
func (m *InMemory) ScanRange(start, end int, fn func(p geom.Point) error) error {
	pts := m.Points()
	if err := checkRange(start, end, len(pts)); err != nil {
		return err
	}
	for _, p := range pts[start:end] {
		if err := fn(p); err != nil {
			if errors.Is(err, ErrStopScan) {
				return nil
			}
			return err
		}
	}
	return nil
}

// ScanRange implements RangeScanner by opening a private handle, seeking
// to the range start, and streaming the rows through a buffered reader, so
// concurrent block scans each read ahead within their own region of the
// file instead of interleaving one-point reads.
func (fb *FileBacked) ScanRange(start, end int, fn func(p geom.Point) error) error {
	if err := checkRange(start, end, fb.count); err != nil {
		return err
	}
	if start == end {
		return nil
	}
	f, err := os.Open(fb.path)
	if err != nil {
		return err
	}
	defer f.Close()
	rowSize := 8 * fb.dims
	if _, err := f.Seek(int64(16+start*rowSize), io.SeekStart); err != nil {
		return err
	}
	bufSize := (end - start) * rowSize
	if bufSize > 1<<20 {
		bufSize = 1 << 20
	}
	br := bufio.NewReaderSize(f, bufSize)
	row := make([]byte, rowSize)
	p := make(geom.Point, fb.dims)
	for i := start; i < end; i++ {
		if _, err := io.ReadFull(br, row); err != nil {
			return fmt.Errorf("dataset: %s: point %d: %w", fb.path, i, err)
		}
		for j := range p {
			p[j] = math.Float64frombits(binary.LittleEndian.Uint64(row[8*j:]))
		}
		if err := fn(p); err != nil {
			if errors.Is(err, ErrStopScan) {
				return nil
			}
			return err
		}
	}
	return nil
}

func checkRange(start, end, n int) error {
	if start < 0 || end < start || end > n {
		return fmt.Errorf("dataset: range [%d, %d) out of [0, %d)", start, end, n)
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

// ScanBlocks performs one logical pass over ds as a sequence of index
// blocks, invoking fn(block, start, pts) once per block with the block's
// points. Blocks are fixed by the dataset length and block size alone
// (parallel.BlockRange), never by the worker count, so a reduction that
// combines per-block results in block order is deterministic for any
// parallelism.
//
// With parallelism other than 1 and a RangeScanner dataset, blocks run
// concurrently on a bounded worker pool and fn must be safe for concurrent
// invocation. The pts slice (and its points) is only valid during the call;
// retain with Clone. Any other Dataset falls back to a single sequential
// scan that buffers one block at a time (fn is then called serially, in
// block order, whatever the requested parallelism).
//
// The whole call counts as one pass. A block callback returning ErrStopScan
// stops the scheduling of further blocks and ScanBlocks returns nil; any
// other error aborts the scan and is returned.
func ScanBlocks(ds Dataset, blockSize, parallelism int, fn func(block, start int, pts []geom.Point) error) error {
	return ScanBlocksCfg(ds, ScanConfig{BlockSize: blockSize, Parallelism: parallelism}, fn)
}

// ScanConfig configures a block scan beyond the block size and worker
// budget. The zero value matches ScanBlocks' defaults.
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

// ScanBlocksCfg is ScanBlocks with observability and progress reporting.
func ScanBlocksCfg(ds Dataset, cfg ScanConfig, fn func(block, start int, pts []geom.Point) error) error {
	n := ds.Len()
	if pc, ok := ds.(PassCounter); ok {
		pc.AddPass()
	}
	// Each logical pass is one "scan" span of cfg.Rec, carrying the
	// dataset's points, and so one "scan" event in a traced request's log:
	// a cache-hit request performs no passes and therefore shows zero
	// scan spans — the property the serving tests pin.
	span := cfg.Rec.StartSpan("scan")
	span.AddPoints(int64(n))
	defer span.End()
	blockSize := parallel.BlockSize(cfg.BlockSize)
	parallelism := cfg.Parallelism

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

	if sl, ok := ds.(Sliceable); ok {
		// Blocks are subslices of the resident array: zero copies. The
		// slice is snapshotted once, so a concurrent append never changes
		// the blocks this pass delivers. (InMemory and the generation-
		// pinned views both take this path.)
		if pts := sl.Points(); len(pts) >= n {
			return stopToNil(parallel.BlocksCtxObs(cfg.Ctx, n, blockSize, parallelism, cfg.Rec, func(b, start, end int) error {
				return fn(b, start, pts[start:end])
			}))
		}
	}

	if rs, ok := ds.(RangeScanner); ok {
		dims := ds.Dims()
		return stopToNil(parallel.BlocksCtxObs(cfg.Ctx, n, blockSize, parallelism, cfg.Rec, func(b, start, end int) error {
			buf := blockBufPool.Get().(*blockBuf)
			defer blockBufPool.Put(buf)
			buf.fit(end-start, dims)
			i := 0
			if err := rs.ScanRange(start, end, func(p geom.Point) error {
				copy(buf.pts[i], p)
				i++
				return nil
			}); err != nil {
				return err
			}
			if i != end-start {
				return fmt.Errorf("dataset: block %d yielded %d of %d points", b, i, end-start)
			}
			return fn(b, start, buf.pts)
		}))
	}

	// Fallback: one sequential scan, buffered block by block. Parallelism
	// is ignored — without range access there is no safe way to split the
	// pass — but block boundaries and callback order match the parallel
	// layout exactly, so results are identical.
	buf := blockBufPool.Get().(*blockBuf)
	defer blockBufPool.Put(buf)
	dims := ds.Dims()
	block, fill := 0, 0
	stopped := false
	err := ds.Scan(func(p geom.Point) error {
		if fill == 0 {
			if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
				return fmt.Errorf("%w: %w", ErrCanceled, cfg.Ctx.Err())
			}
			start, end := parallel.BlockRange(block, n, blockSize)
			buf.fit(end-start, dims)
		}
		copy(buf.pts[fill], p)
		fill++
		if fill == len(buf.pts) {
			start, _ := parallel.BlockRange(block, n, blockSize)
			if err := fn(block, start, buf.pts); err != nil {
				if errors.Is(err, ErrStopScan) {
					stopped = true
				}
				return err
			}
			block++
			fill = 0
		}
		return nil
	})
	if stopped {
		return nil
	}
	if err != nil {
		return err
	}
	if fill > 0 {
		// The dataset yielded fewer points than Len() promised; hand over
		// the partial tail block rather than dropping it.
		start, _ := parallel.BlockRange(block, n, blockSize)
		if err := fn(block, start, buf.pts[:fill]); err != nil && !errors.Is(err, ErrStopScan) {
			return err
		}
	}
	return nil
}

// stopToNil converts a block callback's ErrStopScan into a clean stop, the
// same contract Scan has for its callback.
func stopToNil(err error) error {
	if errors.Is(err, ErrStopScan) {
		return nil
	}
	return err
}
