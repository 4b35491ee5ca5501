// Package parallel provides the bounded worker pool and block scheduling
// shared by every parallelized stage of the pipeline: dataset block scans,
// density evaluation, sampling, and the distance loops in clustering and
// outlier detection.
//
// The design constraint throughout is determinism: a computation run with
// any worker count must produce bit-for-bit the result of the serial run.
// The package therefore never exposes unordered completion. Work is split
// into blocks by index arithmetic only (block boundaries depend on the
// input size and block size, never on the worker count), workers pull block
// indices from a shared counter, and callers reduce per-block results in
// block order. Commutative-and-associative reductions (integer counts) may
// be merged in any order; floating-point reductions must be merged in block
// order, which is what the helpers here make natural.
package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ErrCanceled is returned (wrapped, with the context's own error as a
// second cause) when a context-aware run is abandoned because its context
// was canceled or its deadline expired. Checks are coarse — once per task
// or block, never per point — so cancellation latency is bounded by one
// block's work. Test with errors.Is(err, ErrCanceled); the wrapped error
// also matches context.Canceled / context.DeadlineExceeded as appropriate.
var ErrCanceled = errors.New("parallel: canceled")

// ctxErr converts a done context into the typed cancellation error, or
// returns nil for a live (or nil) context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return nil
}

// DefaultBlockSize is the number of points per scheduling block when the
// caller does not choose one. Large enough that per-block overhead
// (goroutine handoff, one RNG split, buffer setup) is negligible, small
// enough that a 100k-point dataset still splits into ~25 blocks and keeps
// 8 workers busy.
const DefaultBlockSize = 4096

// Degree resolves a Parallelism option to an effective worker count:
// 0 means runtime.GOMAXPROCS(0) (use the machine), negative values are
// clamped to 1 (serial).
func Degree(p int) int {
	if p == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if p < 1 {
		return 1
	}
	return p
}

// BlockSize resolves a block-size option: 0 means DefaultBlockSize,
// negative values are clamped to 1.
func BlockSize(bs int) int {
	if bs == 0 {
		return DefaultBlockSize
	}
	if bs < 1 {
		return 1
	}
	return bs
}

// NumBlocks returns how many blocks of the given size cover n items.
func NumBlocks(n, blockSize int) int {
	blockSize = BlockSize(blockSize)
	return (n + blockSize - 1) / blockSize
}

// BlockRange returns the half-open item range [start, end) of block b over
// n items. The range depends only on n, blockSize, and b — never on how
// many workers execute the blocks — which is the foundation of the
// determinism argument in DESIGN.md.
func BlockRange(b, n, blockSize int) (start, end int) {
	blockSize = BlockSize(blockSize)
	start = b * blockSize
	end = start + blockSize
	if end > n {
		end = n
	}
	return start, end
}

// DoObs runs fn(i) for every i in [0, n), distributing the calls over
// Degree(parallelism) goroutines. With an effective degree of 1 (or n ≤ 1)
// fn is called inline, in index order, with no goroutines — the serial
// reference path. Otherwise workers pull indices from a shared counter, so
// call order is unspecified; fn must only write to state owned by index i
// (or otherwise synchronized).
//
// The first error stops the distribution of further indices (in-flight
// calls complete) and is returned. DoObs never returns before every
// started fn has finished.
//
// When rec is non-nil, each invocation records one pool run (inline or
// pooled), the tasks scheduled, and the workers spawned. The accounting
// happens once per call, before any fn runs, so it costs nothing per task
// and cannot perturb results — scheduling is identical with rec nil or set.
func DoObs(n, parallelism int, rec *obs.Recorder, fn func(i int) error) error {
	return DoCtxObs(nil, n, parallelism, rec, fn)
}

// DoCtxObs is DoObs with coarse cancellation: the context is checked once
// before each task (never inside one), and a done context stops the
// distribution of further indices and returns ErrCanceled (wrapped); a nil
// ctx disables the checks. Cancellation never changes the result of a run
// that completes: tasks either all run, or the call returns ErrCanceled.
func DoCtxObs(ctx context.Context, n, parallelism int, rec *obs.Recorder, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := Degree(parallelism)
	if workers > n {
		workers = n
	}
	rec.PoolRun(n, workers)
	// One event per pool run (per scan pass, not per task), so a traced
	// request shows how its block work was scheduled.
	rec.Eventf("pool/run", "tasks=%d workers=%d", n, workers)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctxErr(ctx); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next    atomic.Int64
		failed  atomic.Bool
		errOnce sync.Once
		firstE  error
		wg      sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if failed.Load() {
					return
				}
				if err := ctxErr(ctx); err != nil {
					errOnce.Do(func() { firstE = err })
					failed.Store(true)
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errOnce.Do(func() { firstE = err })
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstE
}

// BlocksCtxObs runs fn(b, start, end) for every block of blockSize items
// over n, using DoCtxObs for scheduling, cancellation and pool accounting.
// It is the common shape of a chunked scan: the caller allocates per-block
// result slots up front (NumBlocks tells it how many) and reduces them in
// block order afterwards.
func BlocksCtxObs(ctx context.Context, n, blockSize, parallelism int, rec *obs.Recorder, fn func(b, start, end int) error) error {
	nb := NumBlocks(n, blockSize)
	return DoCtxObs(ctx, nb, parallelism, rec, func(b int) error {
		start, end := BlockRange(b, n, blockSize)
		return fn(b, start, end)
	})
}

// SleepCtx sleeps for d or until ctx is done, whichever comes first,
// returning the typed cancellation error in the latter case. It is the
// context-aware time.Sleep used by retry backoff and fault-injected
// delays: a canceled request never waits out a backoff. A nil ctx sleeps
// unconditionally.
func SleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctxErr(ctx)
	}
	if ctx == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctxErr(ctx)
	}
}
