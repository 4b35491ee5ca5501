package parallel

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

func TestDoCtxCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var calls atomic.Int32
		err := DoCtxObs(ctx, 1000, workers, nil, func(i int) error {
			calls.Add(1)
			return nil
		})
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("workers=%d: err = %v, want ErrCanceled", workers, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v does not match context.Canceled", workers, err)
		}
		if n := calls.Load(); n != 0 {
			t.Errorf("workers=%d: %d tasks ran on a pre-canceled context", workers, n)
		}
	}
}

func TestDoCtxCancelMidRun(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int32
		err := DoCtxObs(ctx, 10_000, workers, nil, func(i int) error {
			if calls.Add(1) == 10 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("workers=%d: err = %v, want ErrCanceled", workers, err)
		}
		// The check is per task, so at most a handful of in-flight tasks
		// complete after the cancel.
		if n := calls.Load(); n == 10_000 {
			t.Errorf("workers=%d: cancellation did not stop scheduling (%d calls)", workers, n)
		}
	}
}

func TestDoCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	err := DoCtxObs(ctx, 100, 4, nil, func(i int) error { return nil })
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
}

func TestDoCtxNilAndLiveContexts(t *testing.T) {
	for _, ctx := range []context.Context{nil, context.Background()} {
		var calls atomic.Int32
		err := DoCtxObs(ctx, 500, 4, nil, func(i int) error {
			calls.Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("ctx=%v: err = %v", ctx, err)
		}
		if n := calls.Load(); n != 500 {
			t.Errorf("ctx=%v: %d calls, want 500", ctx, n)
		}
	}
}

func TestBlocksCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := BlocksCtxObs(ctx, 10_000, 128, 4, nil, func(b, start, end int) error { return nil })
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}
